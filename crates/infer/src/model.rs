//! The compiled inference model: frozen weights compiled by the kernel in
//! [`kernel`](crate::kernel) at one [`Precision`], and the
//! allocation-free batched forward pass over reusable [`Scratch`].
//!
//! Every request-shaped entry point ([`InferModel::run_batch_into`] and
//! friends) validates its input and returns [`InferError`] — the serving
//! layer sheds malformed requests instead of panicking.

use crate::error::InferError;
use crate::kernel::{Kernel, Lanes, LayerParams};
use crate::precision::{Precision, QFormat, F32, F64};
use crate::variation::VariationSample;

/// Architecture and operating constants of a frozen 2-layer printed
/// temporal-processing model — everything needed to interpret a flat
/// parameter list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferSpec {
    /// Input feature count.
    pub input_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Class count.
    pub classes: usize,
    /// RC stages per learnable filter (1, 2 or 3).
    pub stages: usize,
    /// Nominal crossbar-coupling factor μ the filters were designed at.
    pub mu_nominal: f64,
    /// Temporal discretization Δt of the filter recurrence (s).
    pub dt: f64,
    /// Sense-stage scale applied to the final-step voltages.
    pub logit_scale: f64,
}

impl InferSpec {
    /// `(fan_in, fan_out)` of the two layers.
    pub fn layer_dims(&self) -> [(usize, usize); 2] {
        [(self.input_dim, self.hidden), (self.hidden, self.classes)]
    }

    /// Parameter tensors per layer: `θ_w, θ_b, θ_d`, then `log R, log C`
    /// per stage, then the four `ptanh` η vectors.
    pub fn params_per_layer(&self) -> usize {
        3 + 2 * self.stages + 4
    }

    /// Total parameter tensors in model order.
    pub fn param_count(&self) -> usize {
        2 * self.params_per_layer()
    }

    /// Element counts of every parameter tensor, in model parameter order
    /// (the order `PrintedModel::parameters` exposes).
    pub fn param_lens(&self) -> Vec<usize> {
        let mut lens = Vec::with_capacity(self.param_count());
        for (fan_in, fan_out) in self.layer_dims() {
            lens.push(fan_in * fan_out); // θ_w
            lens.push(fan_out); // θ_b
            lens.push(fan_out); // θ_d
            for _ in 0..self.stages {
                lens.push(fan_out); // log R
                lens.push(fan_out); // log C
            }
            for _ in 0..4 {
                lens.push(fan_out); // η₁..η₄
            }
        }
        lens
    }
}

/// Errors when compiling a parameter list into an [`InferModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A dimension of the spec is zero.
    ZeroDimension,
    /// The stage count is not 1, 2 or 3.
    BadStageCount(usize),
    /// Parameter list length differs from the declared architecture.
    ParameterCountMismatch {
        /// Parameters the architecture needs.
        expected: usize,
        /// Parameters found.
        found: usize,
    },
    /// One parameter tensor has the wrong number of elements.
    ParameterShapeMismatch {
        /// Index in the parameter list.
        index: usize,
        /// Elements expected.
        expected: usize,
        /// Elements found.
        found: usize,
    },
    /// One parameter tensor contains a NaN or infinity — a frozen model
    /// must never serve non-finite weights.
    NonFiniteParameter {
        /// Index in the parameter list.
        index: usize,
    },
    /// A fixed-point format outside the supported fractional-bit range.
    BadQFormat {
        /// Fractional bits requested.
        frac_bits: u32,
    },
    /// A fixed-point format too fine for this architecture's fan-in: the
    /// crossbar's `i64` accumulator could overflow.
    QFormatOverflow {
        /// Fractional bits requested.
        frac_bits: u32,
        /// Finest format the architecture supports.
        max_frac_bits: u32,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::ZeroDimension => write!(f, "zero-sized model dimension"),
            BuildError::BadStageCount(n) => write!(f, "unsupported filter stage count {n}"),
            BuildError::ParameterCountMismatch { expected, found } => write!(
                f,
                "parameter list has {found} tensors, architecture needs {expected}"
            ),
            BuildError::ParameterShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "parameter {index} has {found} elements, architecture needs {expected}"
            ),
            BuildError::NonFiniteParameter { index } => {
                write!(f, "parameter {index} contains a non-finite value")
            }
            BuildError::BadQFormat { frac_bits } => {
                write!(f, "unsupported fixed-point format q{frac_bits}")
            }
            BuildError::QFormatOverflow {
                frac_bits,
                max_frac_bits,
            } => write!(
                f,
                "fixed-point format q{frac_bits} too fine for this fan-in \
                 (accumulator overflow; finest supported is q{max_frac_bits})"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Runs `$body` with `$x` bound to the payload of whichever precision
/// variant `$e` (a [`Backend`] or [`ScratchLanes`]) holds.
macro_rules! per_precision {
    ($ty:ident, $e:expr, $x:ident => $body:expr) => {
        match $e {
            $ty::F64($x) => $body,
            $ty::F32($x) => $body,
            $ty::I32($x) => $body,
        }
    };
}

/// Preallocated, reusable working memory for one batch size. Create once
/// with [`InferModel::make_scratch`] and reuse across forwards — the hot
/// loop performs no allocation.
///
/// A scratch carries the precision of the model that created it: its
/// buffers hold `f64`, `f32` or quantized `i32` elements, and the batch
/// entry points reject a scratch whose precision does not match the
/// model's. Its filter state is the stage voltages at every precision, so
/// the lane-state API below speaks one `f64` wire format (`[layer][stage]
/// [filter]`) and sessions persist and migrate state the same way at
/// every precision.
#[derive(Debug, Clone)]
pub struct Scratch {
    lanes: ScratchLanes,
}

#[derive(Debug, Clone)]
enum ScratchLanes {
    F64(Lanes<F64>),
    F32(Lanes<F32>),
    I32(Lanes<QFormat>),
}

impl Scratch {
    /// The batch size this scratch was sized for.
    pub fn batch(&self) -> usize {
        per_precision!(ScratchLanes, &self.lanes, l => l.batch())
    }

    /// The precision of the model this scratch was created by.
    pub fn precision(&self) -> Precision {
        match &self.lanes {
            ScratchLanes::F64(_) => Precision::F64,
            ScratchLanes::F32(_) => Precision::F32,
            ScratchLanes::I32(l) => Precision::I32(l.arith()),
        }
    }

    /// Length of one lane's flat resident filter state: the stage voltages
    /// of every layer that belong to a single batch lane, in
    /// `[layer][stage][filter]` order. Sessions persist exactly this many
    /// `f64`s between submissions.
    pub fn lane_state_len(&self) -> usize {
        per_precision!(ScratchLanes, &self.lanes, l => l.state_len())
    }

    /// Checks `lane` and, if given, the length of a lane-state buffer.
    fn check_lane(&self, lane: usize, state_len: Option<usize>) -> Result<(), InferError> {
        if lane >= self.batch() {
            return Err(InferError::ShapeMismatch {
                what: "state lane",
                expected: self.batch(),
                found: lane,
            });
        }
        if let Some(state_len) = state_len.filter(|&n| n != self.lane_state_len()) {
            return Err(InferError::ShapeMismatch {
                what: "lane state",
                expected: self.lane_state_len(),
                found: state_len,
            });
        }
        Ok(())
    }

    /// Copies lane `lane`'s stage voltages into `out` (flat
    /// `[layer][stage][filter]` wire order, [`Scratch::lane_state_len`]
    /// values), converted to `f64`.
    ///
    /// # Errors
    ///
    /// [`InferError::ShapeMismatch`] on a lane out of range or an `out`
    /// of the wrong length; nothing is written on error.
    pub fn export_lane_state(&self, lane: usize, out: &mut [f64]) -> Result<(), InferError> {
        self.check_lane(lane, Some(out.len()))?;
        per_precision!(ScratchLanes, &self.lanes, l => l.export(lane, out));
        Ok(())
    }

    /// Writes a flat lane state (as produced by
    /// [`Scratch::export_lane_state`]) into lane `lane`'s stage voltages,
    /// converted to the scratch's precision (quantized backends round and
    /// saturate), so an export/import round trip is stable.
    ///
    /// # Errors
    ///
    /// [`InferError::ShapeMismatch`] on a lane out of range or a `state`
    /// of the wrong length; the scratch is untouched on error.
    pub fn import_lane_state(&mut self, lane: usize, state: &[f64]) -> Result<(), InferError> {
        self.check_lane(lane, Some(state.len()))?;
        per_precision!(ScratchLanes, &mut self.lanes, l => l.import(lane, state));
        Ok(())
    }

    /// Root-mean-square of lane `lane`'s resident stage voltages — a cheap
    /// scalar summary of filter excitation that drift detectors can track
    /// over time. NaN states propagate into the result (a non-finite RMS
    /// is itself a detection signal).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ShapeMismatch`] if `lane` is out of range.
    pub fn lane_state_rms(&self, lane: usize) -> Result<f64, InferError> {
        self.check_lane(lane, None)?;
        Ok(per_precision!(ScratchLanes, &self.lanes, l => l.rms(lane)))
    }

    /// Whether every filter-state value is finite. One non-finite input
    /// sample poisons the `a⊙state + b⊙input` recurrence permanently, so
    /// watchdogs (and the guarded-path tests) use this to audit state
    /// health between forwards. The `i32` backend is finite by
    /// construction (saturating arithmetic), so it always reports `true`.
    pub fn states_are_finite(&self) -> bool {
        per_precision!(ScratchLanes, &self.lanes, l => l.states_are_finite())
    }
}

/// A frozen, graph-free printed model: plain weight buffers plus a
/// compiled execution plan. Plain data throughout, so it is `Send + Sync`
/// and one instance can serve every worker thread of a Monte-Carlo
/// fan-out.
#[derive(Debug, Clone)]
pub struct InferModel {
    spec: InferSpec,
    raw: [LayerParams; 2],
    precision: Precision,
    backend: Backend,
}

/// The kernel compiled at the model's precision. Every precision compiles
/// from the raw `f64` parameters (a single quantization point), so
/// `perturbed()` requantizes for free.
#[derive(Debug, Clone)]
enum Backend {
    F64(Kernel<F64>),
    F32(Kernel<F32>),
    I32(Kernel<QFormat>),
}

impl Backend {
    fn compile(
        precision: Precision,
        spec: &InferSpec,
        raw: &[LayerParams; 2],
        noise: Option<&VariationSample>,
    ) -> Backend {
        match precision {
            Precision::F64 => Backend::F64(Kernel::compile(F64, spec, raw, noise)),
            Precision::F32 => Backend::F32(Kernel::compile(F32, spec, raw, noise)),
            Precision::I32(q) => Backend::I32(Kernel::compile(q, spec, raw, noise)),
        }
    }
}

impl InferModel {
    /// Compiles a flat parameter list (in `PrintedModel::parameters`
    /// order) into an executable model at the reference `f64` precision.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when the parameters are inconsistent with
    /// the declared architecture or contain non-finite values.
    pub fn build(spec: InferSpec, params: &[Vec<f64>]) -> Result<Self, BuildError> {
        Self::build_with_precision(spec, params, Precision::F64)
    }

    /// Like [`InferModel::build`] but compiling the kernel at the given
    /// [`Precision`]. The raw `f64` parameters are kept regardless of
    /// precision (every compilation quantizes from them), and the
    /// lane-state wire format is the same stage voltages at every
    /// precision.
    ///
    /// # Errors
    ///
    /// The [`BuildError`]s of [`InferModel::build`], plus
    /// [`BuildError::QFormatOverflow`] if an `i32` format is too fine for
    /// the architecture's fan-in.
    pub fn build_with_precision(
        spec: InferSpec,
        params: &[Vec<f64>],
        precision: Precision,
    ) -> Result<Self, BuildError> {
        if spec.input_dim == 0 || spec.hidden == 0 || spec.classes == 0 {
            return Err(BuildError::ZeroDimension);
        }
        if !(1..=3).contains(&spec.stages) {
            return Err(BuildError::BadStageCount(spec.stages));
        }
        let lens = spec.param_lens();
        if params.len() != lens.len() {
            return Err(BuildError::ParameterCountMismatch {
                expected: lens.len(),
                found: params.len(),
            });
        }
        for (index, (p, &expected)) in params.iter().zip(&lens).enumerate() {
            if p.len() != expected {
                return Err(BuildError::ParameterShapeMismatch {
                    index,
                    expected,
                    found: p.len(),
                });
            }
            if p.iter().any(|v| !v.is_finite()) {
                return Err(BuildError::NonFiniteParameter { index });
            }
        }

        if let Precision::I32(q) = precision {
            q.validate_for(spec.input_dim.max(spec.hidden))?;
        }

        let per_layer = spec.params_per_layer();
        let exp = |k: usize| params[k].iter().map(|v| v.exp()).collect::<Vec<f64>>();
        let raw: [LayerParams; 2] = std::array::from_fn(|l| {
            let base = l * per_layer;
            let eta_base = base + 3 + 2 * spec.stages;
            LayerParams {
                theta_w: params[base].clone(),
                theta_b: params[base + 1].clone(),
                theta_d: params[base + 2].clone(),
                r: (0..spec.stages).map(|s| exp(base + 3 + 2 * s)).collect(),
                c: (0..spec.stages).map(|s| exp(base + 4 + 2 * s)).collect(),
                eta: std::array::from_fn(|k| params[eta_base + k].clone()),
            }
        });
        let backend = Backend::compile(precision, &spec, &raw, None);
        Ok(InferModel {
            spec,
            raw,
            precision,
            backend,
        })
    }

    /// The architecture this model was compiled for.
    pub fn spec(&self) -> &InferSpec {
        &self.spec
    }

    /// The precision the execution kernels were compiled at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Compiles a per-trial instance under one variation sample. The raw
    /// weights are shared nominal values, so perturbing a perturbed
    /// instance yields the same result as perturbing the original.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::SpecMismatch`] if the sample's shape does not
    /// match this architecture (samples drawn via [`VariationSample::draw`]
    /// on the same spec always match).
    pub fn perturbed(&self, sample: &VariationSample) -> Result<InferModel, InferError> {
        self.check_sample(sample)?;
        Ok(InferModel {
            spec: self.spec,
            raw: self.raw.clone(),
            precision: self.precision,
            backend: Backend::compile(self.precision, &self.spec, &self.raw, Some(sample)),
        })
    }

    fn check_sample(&self, sample: &VariationSample) -> Result<(), InferError> {
        if sample.layers.len() != 2 {
            return Err(InferError::SpecMismatch {
                what: "variation layers",
                expected: 2,
                found: sample.layers.len(),
            });
        }
        for (raw, lv) in self.raw.iter().zip(&sample.layers) {
            if lv.eps_w.len() != raw.theta_w.len() {
                return Err(InferError::SpecMismatch {
                    what: "crossbar variation",
                    expected: raw.theta_w.len(),
                    found: lv.eps_w.len(),
                });
            }
            if lv.eps_r.len() != self.spec.stages {
                return Err(InferError::SpecMismatch {
                    what: "filter stages",
                    expected: self.spec.stages,
                    found: lv.eps_r.len(),
                });
            }
        }
        Ok(())
    }

    /// The training step without an autograd tape: the mean cross-entropy
    /// of `batch` labelled sequences and its gradient with respect to every
    /// parameter, written to `grad` in `PrintedModel::parameters` order
    /// (the tensors of [`InferSpec::param_lens`], concatenated).
    ///
    /// It runs the `f64` kernel compiled from this model's raw parameters,
    /// at nominal conditions or under `sample`, whatever precision the
    /// model serves at. The forward is the serving kernel, so its logits
    /// are bitwise those of `perturbed(sample)` run at `f64`; a reverse
    /// sweep over stashed stage voltages gives the gradient. `steps` has
    /// the [`run_batch`](Self::run_batch) layout.
    ///
    /// # Errors
    ///
    /// The [`InferError`]s of [`run_batch`](Self::run_batch) for `steps`
    /// and `batch`; [`InferError::ShapeMismatch`] if `labels` is not
    /// `batch` long, a label is not below the class count, or `grad` has
    /// the wrong length; [`InferError::SpecMismatch`] if `sample` was drawn
    /// for another architecture. Nothing is written on error.
    pub fn loss_and_grad(
        &self,
        sample: Option<&VariationSample>,
        steps: &[f64],
        batch: usize,
        labels: &[usize],
        grad: &mut [f64],
    ) -> Result<f64, InferError> {
        self.check_steps(steps, batch)?;
        if let Some(sample) = sample {
            self.check_sample(sample)?;
        }
        if labels.len() != batch {
            return Err(InferError::ShapeMismatch {
                what: "labels",
                expected: batch,
                found: labels.len(),
            });
        }
        if let Some(&label) = labels.iter().find(|&&l| l >= self.spec.classes) {
            return Err(InferError::ShapeMismatch {
                what: "label",
                expected: self.spec.classes,
                found: label,
            });
        }
        let params: usize = self.spec.param_lens().iter().sum();
        if grad.len() != params {
            return Err(InferError::ShapeMismatch {
                what: "gradient",
                expected: params,
                found: grad.len(),
            });
        }
        Ok(crate::adjoint::loss_and_grad(
            &self.spec, &self.raw, sample, steps, batch, labels, grad,
        ))
    }

    /// Allocates working memory for batches of exactly `batch` sequences.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ZeroBatch`] if `batch == 0`.
    pub fn make_scratch(&self, batch: usize) -> Result<Scratch, InferError> {
        if batch == 0 {
            return Err(InferError::ZeroBatch);
        }
        let lanes = match &self.backend {
            Backend::F64(k) => ScratchLanes::F64(k.lanes(batch)),
            Backend::F32(k) => ScratchLanes::F32(k.lanes(batch)),
            Backend::I32(k) => ScratchLanes::I32(k.lanes(batch)),
        };
        Ok(Scratch { lanes })
    }

    /// Length of one stream's flat resident filter state
    /// (`stages × (hidden + classes)` values) — what a session persists
    /// between submissions.
    pub fn lane_state_len(&self) -> usize {
        self.spec.stages * (self.spec.hidden + self.spec.classes)
    }

    /// Writes this instance's initial stage voltages (zero at nominal, the
    /// sampled V₀ when perturbed, in the model's precision) into a flat
    /// lane state, in the `[layer][stage][filter]` order of
    /// [`Scratch::export_lane_state`].
    ///
    /// # Errors
    ///
    /// [`InferError::ShapeMismatch`] if `state` is not
    /// [`lane_state_len`](Self::lane_state_len) long.
    pub fn reset_lane_state(&self, state: &mut [f64]) -> Result<(), InferError> {
        if state.len() != self.lane_state_len() {
            return Err(InferError::ShapeMismatch {
                what: "lane state",
                expected: self.lane_state_len(),
                found: state.len(),
            });
        }
        per_precision!(Backend, &self.backend, k => k.initial_state(state));
        Ok(())
    }

    /// Runs the kernel on `scratch`: resets its filter states to the
    /// initial stage voltages if `reset`, advances them over every whole
    /// timestep in `steps` (`[step][lane][input]`, possibly none), then
    /// writes the sense-stage logits into `logits` if given. Callers must
    /// have validated the scratch and buffers against this model (every
    /// public entry point does).
    pub(crate) fn forward(
        &self,
        scratch: &mut Scratch,
        reset: bool,
        steps: &[f64],
        logits: Option<&mut [f64]>,
    ) {
        match (&self.backend, &mut scratch.lanes) {
            (Backend::F64(k), ScratchLanes::F64(l)) => k.run(l, reset, steps, logits),
            (Backend::F32(k), ScratchLanes::F32(l)) => k.run(l, reset, steps, logits),
            (Backend::I32(k), ScratchLanes::I32(l)) => k.run(l, reset, steps, logits),
            _ => unreachable!("scratch precision checked before kernel dispatch"),
        }
    }

    /// Runs `batch` sequences through the model using preallocated
    /// scratch, writing final-step logits `[batch × classes]` into `out`.
    ///
    /// `steps` is time-major contiguous data: timestep `t`, sequence `b`,
    /// feature `i` lives at `((t * batch) + b) * input_dim + i`.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ZeroBatch`] if `batch == 0`, and
    /// [`InferError::ShapeMismatch`] if `steps` is empty or not a whole
    /// number of timesteps, if `scratch` was sized for a different batch,
    /// or if `out` is not `[batch × classes]`. On error nothing is
    /// written: `scratch` and `out` are untouched.
    pub fn run_batch_into(
        &self,
        steps: &[f64],
        batch: usize,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) -> Result<(), InferError> {
        self.validate_batch(steps, batch, scratch, out)?;
        self.forward(scratch, true, steps, Some(out));
        Ok(())
    }

    /// Like [`InferModel::run_batch_into`] but **resumes from the filter
    /// states already resident in `scratch`** instead of resetting them —
    /// the batched spelling of [`StreamState::step`](crate::StreamState)
    /// for windows split across submissions. Feeding a window in chunks
    /// through this call (states carried between calls) produces exactly
    /// the logits of one [`run_batch_into`](Self::run_batch_into) on the
    /// concatenated window, because the per-lane recurrence is identical;
    /// only the call granularity differs.
    ///
    /// Callers own state initialization: start a fresh stream from
    /// [`InferModel::reset_lane_state`] (or a scratch that just ran
    /// `run_batch_into`, which ends in a post-window state).
    ///
    /// # Errors
    ///
    /// The same [`InferError`]s as [`InferModel::run_batch_into`]; on
    /// error nothing is written and the resident states are untouched.
    pub fn run_chunk_into(
        &self,
        steps: &[f64],
        batch: usize,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) -> Result<(), InferError> {
        self.validate_batch(steps, batch, scratch, out)?;
        self.forward(scratch, false, steps, Some(out));
        Ok(())
    }

    fn validate_batch(
        &self,
        steps: &[f64],
        batch: usize,
        scratch: &Scratch,
        out: &[f64],
    ) -> Result<(), InferError> {
        self.check_steps(steps, batch)?;
        if scratch.batch() != batch {
            return Err(InferError::ShapeMismatch {
                what: "scratch batch",
                expected: batch,
                found: scratch.batch(),
            });
        }
        let found = scratch.precision();
        if found != self.precision {
            return Err(InferError::PrecisionMismatch {
                expected: self.precision,
                found,
            });
        }
        if out.len() != batch * self.spec.classes {
            return Err(InferError::ShapeMismatch {
                what: "output buffer",
                expected: batch * self.spec.classes,
                found: out.len(),
            });
        }
        Ok(())
    }

    fn check_steps(&self, steps: &[f64], batch: usize) -> Result<(), InferError> {
        if batch == 0 {
            return Err(InferError::ZeroBatch);
        }
        let step_len = batch * self.spec.input_dim;
        if steps.is_empty() || !steps.len().is_multiple_of(step_len) {
            return Err(InferError::ShapeMismatch {
                what: "steps",
                expected: step_len,
                found: steps.len(),
            });
        }
        Ok(())
    }

    /// Convenience wrapper around [`InferModel::run_batch_into`] that
    /// allocates its own scratch and output.
    ///
    /// # Errors
    ///
    /// Returns the same [`InferError`]s as [`InferModel::run_batch_into`].
    pub fn run_batch(&self, steps: &[f64], batch: usize) -> Result<Vec<f64>, InferError> {
        let mut scratch = self.make_scratch(batch)?;
        let mut out = vec![0.0; batch * self.spec.classes];
        self.run_batch_into(steps, batch, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Opens an incremental streaming session over `batch` parallel
    /// sequences (one timestep per [`StreamState::step`] call).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ZeroBatch`] if `batch == 0`.
    pub fn stream(&self, batch: usize) -> Result<crate::StreamState<'_>, InferError> {
        crate::StreamState::new(self, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny hand-specified spec: 1 input, 2 hidden, 2 classes, order 1.
    fn tiny_spec() -> InferSpec {
        InferSpec {
            input_dim: 1,
            hidden: 2,
            classes: 2,
            stages: 1,
            mu_nominal: 1.15,
            dt: 0.01,
            logit_scale: 4.0,
        }
    }

    fn tiny_params(spec: &InferSpec) -> Vec<Vec<f64>> {
        spec.param_lens()
            .iter()
            .enumerate()
            .map(|(k, &n)| (0..n).map(|i| 0.2 + 0.1 * (k + i) as f64).collect())
            .collect()
    }

    #[test]
    fn build_validates_shapes() {
        let spec = tiny_spec();
        let mut params = tiny_params(&spec);
        assert!(InferModel::build(spec, &params).is_ok());

        params[0].push(1.0);
        assert!(matches!(
            InferModel::build(spec, &params),
            Err(BuildError::ParameterShapeMismatch { index: 0, .. })
        ));
        params[0].pop();

        params.pop();
        assert!(matches!(
            InferModel::build(spec, &params),
            Err(BuildError::ParameterCountMismatch { .. })
        ));
    }

    #[test]
    fn build_rejects_non_finite() {
        let spec = tiny_spec();
        let mut params = tiny_params(&spec);
        params[1][0] = f64::NAN;
        assert!(matches!(
            InferModel::build(spec, &params),
            Err(BuildError::NonFiniteParameter { index: 1 })
        ));
    }

    #[test]
    fn build_rejects_bad_stage_count() {
        let mut spec = tiny_spec();
        spec.stages = 4;
        assert!(matches!(
            InferModel::build(spec, &tiny_params(&spec)),
            Err(BuildError::BadStageCount(4))
        ));
    }

    #[test]
    fn batched_equals_per_sequence() {
        let spec = tiny_spec();
        let model = InferModel::build(spec, &tiny_params(&spec)).unwrap();
        // 3 sequences of 8 steps, time-major.
        let t_len = 8;
        let batch = 3;
        let series: Vec<Vec<f64>> = (0..batch)
            .map(|b| (0..t_len).map(|t| ((b + t) as f64 * 0.37).sin()).collect())
            .collect();
        let mut steps = vec![0.0; t_len * batch];
        for (t, chunk) in steps.chunks_exact_mut(batch).enumerate() {
            for (b, slot) in chunk.iter_mut().enumerate() {
                *slot = series[b][t];
            }
        }
        let batched = model.run_batch(&steps, batch).unwrap();
        for (b, s) in series.iter().enumerate() {
            let single = model.run_batch(s, 1).unwrap();
            assert_eq!(
                single,
                batched[b * spec.classes..(b + 1) * spec.classes].to_vec(),
                "sequence {b} diverged from its batched run"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let spec = tiny_spec();
        let model = InferModel::build(spec, &tiny_params(&spec)).unwrap();
        let steps: Vec<f64> = (0..16).map(|t| (t as f64 * 0.21).cos()).collect();
        let mut scratch = model.make_scratch(1).unwrap();
        let mut first = vec![0.0; spec.classes];
        let mut second = vec![0.0; spec.classes];
        model
            .run_batch_into(&steps, 1, &mut scratch, &mut first)
            .unwrap();
        model
            .run_batch_into(&steps, 1, &mut scratch, &mut second)
            .unwrap();
        assert_eq!(first, second, "scratch reuse must not leak state");
    }

    #[test]
    fn quantized_backends_track_reference() {
        use crate::precision::QFormat;
        let spec = tiny_spec();
        let params = tiny_params(&spec);
        let steps: Vec<f64> = (0..24).map(|t| (t as f64 * 0.31).sin() * 0.8).collect();
        let reference = InferModel::build(spec, &params)
            .unwrap()
            .run_batch(&steps, 1)
            .unwrap();
        for precision in [Precision::F32, Precision::I32(QFormat::DEFAULT)] {
            let model = InferModel::build_with_precision(spec, &params, precision).unwrap();
            assert_eq!(model.precision(), precision);
            let got = model.run_batch(&steps, 1).unwrap();
            for (g, r) in got.iter().zip(&reference) {
                assert!(
                    (g - r).abs() < 1e-3,
                    "{precision} diverged: {g} vs {r} (all: {got:?} vs {reference:?})"
                );
            }
        }
    }

    #[test]
    fn mismatched_scratch_precision_is_rejected() {
        let spec = tiny_spec();
        let params = tiny_params(&spec);
        let f64_model = InferModel::build(spec, &params).unwrap();
        let f32_model = InferModel::build_with_precision(spec, &params, Precision::F32).unwrap();
        let mut scratch = f32_model.make_scratch(1).unwrap();
        assert_eq!(scratch.precision(), Precision::F32);
        let mut out = vec![0.0; spec.classes];
        let err = f64_model
            .run_batch_into(&[0.5, 0.25], 1, &mut scratch, &mut out)
            .unwrap_err();
        assert!(matches!(
            err,
            InferError::PrecisionMismatch {
                expected: Precision::F64,
                found: Precision::F32,
            }
        ));
    }

    #[test]
    fn too_fine_qformat_is_rejected_at_build() {
        use crate::precision::QFormat;
        let spec = InferSpec {
            input_dim: 1,
            hidden: 300,
            classes: 2,
            stages: 1,
            mu_nominal: 1.15,
            dt: 0.01,
            logit_scale: 4.0,
        };
        let params: Vec<Vec<f64>> = spec.param_lens().iter().map(|&n| vec![0.1; n]).collect();
        let err = InferModel::build_with_precision(spec, &params, Precision::I32(QFormat::DEFAULT))
            .unwrap_err();
        assert!(matches!(err, BuildError::QFormatOverflow { .. }));
        // A coarser format fits the same architecture.
        let coarse = Precision::I32(QFormat::new(16).unwrap());
        assert!(InferModel::build_with_precision(spec, &params, coarse).is_ok());
    }

    #[test]
    fn logit_scale_is_applied() {
        let spec = tiny_spec();
        let mut scaled = spec;
        scaled.logit_scale = 8.0;
        let params = tiny_params(&spec);
        let a = InferModel::build(spec, &params).unwrap();
        let b = InferModel::build(scaled, &params).unwrap();
        let steps = [0.4, -0.2, 0.9];
        let la = a.run_batch(&steps, 1).unwrap();
        let lb = b.run_batch(&steps, 1).unwrap();
        for (x, y) in la.iter().zip(&lb) {
            assert!((y - 2.0 * x).abs() < 1e-15);
        }
    }
}
