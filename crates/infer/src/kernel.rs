//! The one inference kernel: crossbar → cascaded first-order SO-LF
//! sections → `ptanh`, generic over the per-element [`Arith`] of a
//! precision.
//!
//! Buffers are filter-major (`[filter][lane]`): per-filter coefficients
//! are loop-invariant scalars and every inner loop runs over contiguous
//! batch lanes, the shape LLVM autovectorizes. Layer activations come out
//! filter-major too, so the second layer consumes them without a
//! transpose; only the model input (one transpose per step) and the final
//! logits change layout.
//!
//! The filter state is the stage voltages themselves, `[stage][filter]
//! [lane]` per layer, for every precision: lane export and import are an
//! element conversion in the `[layer][stage][filter]` wire order.

use crate::model::InferSpec;
use crate::precision::Arith;
use crate::variation::{LayerVariation, VariationSample};

/// Raw (uncompiled) per-layer weights, kept so perturbed instances always
/// compile from the nominal values.
#[derive(Debug, Clone)]
pub(crate) struct LayerParams {
    pub(crate) theta_w: Vec<f64>,
    pub(crate) theta_b: Vec<f64>,
    pub(crate) theta_d: Vec<f64>,
    /// Nominal stage resistances `exp(log R)`, `[stage][filter]`.
    pub(crate) r: Vec<Vec<f64>>,
    /// Nominal stage capacitances `exp(log C)`, `[stage][filter]`.
    pub(crate) c: Vec<Vec<f64>>,
    pub(crate) eta: [Vec<f64>; 4],
}

/// One layer compiled into some precision's element type.
#[derive(Debug, Clone)]
pub(crate) struct Layer<A: Arith> {
    fan_out: usize,
    /// Effective `θ_w` `[fan_in × fan_out]`, as [`Arith::weight`] stores it.
    pub(crate) w: Vec<A::T>,
    /// Effective `θ_b` `[fan_out]`, likewise.
    pub(crate) b: Vec<A::T>,
    /// Column normalization `[fan_out]`, as [`Arith::norm`] keeps it.
    pub(crate) g: Vec<A::Norm>,
    /// Section decay `a = RC/(μRC + Δt)`, `[stage][filter]`.
    pub(crate) a: Vec<A::T>,
    /// Section input gain `b = Δt/(μRC + Δt)`, `[stage][filter]`.
    pub(crate) bc: Vec<A::T>,
    /// Initial stage voltage, `[stage][filter]`.
    pub(crate) v0: Vec<A::T>,
    /// Effective η₁..η₄ per filter.
    pub(crate) eta: Vec<[A::T; 4]>,
}

impl<A: Arith> Layer<A> {
    /// Compiles a layer at nominal conditions or under one variation
    /// sample. The `f64` values replicate the design-time arithmetic
    /// exactly: `G` sums `|θ_w|` row by row before adding `|θ_b|`, `|θ_d|`
    /// and the `1e-12` floor, and `b` is `denom⁻¹·Δt` (the autograd
    /// expression) rather than the algebraically equal `Δt/denom`. Each
    /// value is then converted once into the target precision.
    fn compile(
        arith: A,
        p: &LayerParams,
        spec: &InferSpec,
        noise: Option<&LayerVariation>,
    ) -> Self {
        let fan_out = p.theta_b.len();
        let scaled = |v: &[f64], eps: fn(&LayerVariation) -> &[f64]| -> Vec<f64> {
            match noise {
                Some(n) => v.iter().zip(eps(n)).map(|(v, e)| v * e).collect(),
                None => v.to_vec(),
            }
        };
        let w = scaled(&p.theta_w, |n| &n.eps_w);
        let b = scaled(&p.theta_b, |n| &n.eps_b);
        let d = scaled(&p.theta_d, |n| &n.eps_d);
        let mut g = vec![0.0; fan_out];
        for row in w.chunks_exact(fan_out) {
            for (gj, wv) in g.iter_mut().zip(row) {
                *gj += wv.abs();
            }
        }
        for (j, gj) in g.iter_mut().enumerate() {
            *gj += b[j].abs();
            *gj += d[j].abs();
            *gj += 1e-12;
        }

        let n = spec.stages * fan_out;
        let (mut a, mut bc, mut v0) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for s in 0..spec.stages {
            for j in 0..fan_out {
                let (mut r, mut c, mut mu) = (p.r[s][j], p.c[s][j], spec.mu_nominal);
                if let Some(n) = noise {
                    r *= n.eps_r[s][j];
                    c *= n.eps_c[s][j];
                    mu = n.mu[s][j];
                }
                let rc = r * c;
                let denom = mu * rc + spec.dt;
                a.push(arith.coeff(rc / denom));
                bc.push(arith.coeff(denom.powf(-1.0) * spec.dt));
                v0.push(arith.signal(noise.map_or(0.0, |n| n.v0[s][j])));
            }
        }

        Layer {
            fan_out,
            w: w.iter()
                .enumerate()
                .map(|(k, &v)| arith.weight(v, g[k % fan_out]))
                .collect(),
            b: b.iter()
                .zip(&g)
                .map(|(&v, &gj)| arith.weight(v, gj))
                .collect(),
            g: g.iter().map(|&v| arith.norm(v)).collect(),
            a,
            bc,
            v0,
            eta: (0..fan_out)
                .map(|j| {
                    std::array::from_fn(|k| {
                        // Scaling by an absent variation's 1.0 is exact.
                        let eps = noise.map_or(1.0, |n| n.eps_eta[k][j]);
                        arith.signal(p.eta[k][j] * eps)
                    })
                })
                .collect(),
        }
    }

    /// One timestep. `x` is the `[fan_in][lane]` input, `states` this
    /// layer's `[stage][filter][lane]` stage voltages (advanced in place),
    /// and the activation lands in `act` as `[fan_out][lane]`.
    fn step(
        &self,
        arith: A,
        x: &[A::T],
        acc: &mut [A::Acc],
        states: &mut [A::T],
        act: &mut [A::T],
    ) {
        let (batch, fo) = (acc.len(), self.fan_out);
        let width = fo * batch;
        // Crossbar, feeding stage 0 filter by filter: accumulate over
        // fan-in in ascending order (the mat-mul kernel's order), the
        // first product onto zero; the weight is a loop-invariant scalar
        // over the lanes.
        for (j, v_row) in states[..width].chunks_exact_mut(batch).enumerate() {
            let zero = A::Acc::default();
            for (i, x_row) in x.chunks_exact(batch).enumerate() {
                let wv = self.w[i * fo + j];
                for (a, &xv) in acc.iter_mut().zip(x_row) {
                    *a = arith.mac(if i == 0 { zero } else { *a }, wv, xv);
                }
            }
            let (bj, gj, a0, b0) = (self.b[j], self.g[j], self.a[j], self.bc[j]);
            for (v, &sum) in v_row.iter_mut().zip(acc.iter()) {
                *v = arith.section(a0, *v, b0, arith.crossbar(sum, bj, gj));
            }
        }
        // Later stages: stage s is driven by stage s−1.
        let coeffs = self.a.chunks_exact(fo).zip(self.bc.chunks_exact(fo));
        for (s, (a_s, b_s)) in coeffs.enumerate().skip(1) {
            let (done, rest) = states.split_at_mut(s * width);
            let input = done[(s - 1) * width..].chunks_exact(batch);
            let rows = rest[..width].chunks_exact_mut(batch).zip(input);
            for ((v_row, x_row), (&a, &b)) in rows.zip(a_s.iter().zip(b_s)) {
                for (v, &xv) in v_row.iter_mut().zip(x_row) {
                    *v = arith.section(a, *v, b, xv);
                }
            }
        }
        // ptanh on the last stage's voltage.
        let last = &states[states.len() - width..];
        let rows = act.chunks_exact_mut(batch).zip(last.chunks_exact(batch));
        for ((o_row, v_row), &eta) in rows.zip(&self.eta) {
            arith.ptanh(eta, v_row, o_row);
        }
    }
}

/// A whole model compiled at one precision.
#[derive(Debug, Clone)]
pub(crate) struct Kernel<A: Arith> {
    arith: A,
    input_dim: usize,
    logit_scale: f64,
    pub(crate) layers: [Layer<A>; 2],
}

/// Working memory for one batch size at one precision, filter-major.
#[derive(Debug, Clone)]
pub(crate) struct Lanes<A: Arith> {
    arith: A,
    batch: usize,
    /// Model input, transposed to `[input_dim][lane]`.
    x0: Vec<A::T>,
    /// Crossbar accumulators, `[lane]`.
    acc: Vec<A::Acc>,
    /// Hidden and class activations, `[fan_out][lane]` each.
    act: [Vec<A::T>; 2],
    /// Stage voltages, `[layer][stage][filter][lane]`: one row per value
    /// of the wire format.
    states: Vec<A::T>,
    /// Rows of `states`: values per lane.
    state_len: usize,
}

impl<A: Arith> Kernel<A> {
    /// Compiles both layers at nominal conditions or under `noise`.
    pub(crate) fn compile(
        arith: A,
        spec: &InferSpec,
        raw: &[LayerParams; 2],
        noise: Option<&VariationSample>,
    ) -> Self {
        Kernel {
            arith,
            input_dim: spec.input_dim,
            logit_scale: spec.logit_scale,
            layers: std::array::from_fn(|l| {
                Layer::compile(arith, &raw[l], spec, noise.map(|n| &n.layers[l]))
            }),
        }
    }

    /// Allocates working memory for `batch` lanes (`batch ≥ 1`).
    pub(crate) fn lanes(&self, batch: usize) -> Lanes<A> {
        let zeros = |n: usize| vec![A::T::default(); n * batch];
        let state_len = self.v0().count();
        Lanes {
            arith: self.arith,
            batch,
            x0: zeros(self.input_dim),
            acc: vec![A::Acc::default(); batch],
            act: self.layers.each_ref().map(|l| zeros(l.fan_out)),
            states: zeros(state_len),
            state_len,
        }
    }

    /// Writes the initial stage voltages in `[layer][stage][filter]` wire
    /// order.
    pub(crate) fn initial_state(&self, out: &mut [f64]) {
        let (first, second) = out.split_at_mut(self.layers[0].v0.len());
        for (out, layer) in [first, second].into_iter().zip(&self.layers) {
            for (o, &v) in out.iter_mut().zip(&layer.v0) {
                *o = self.arith.to_f64(v);
            }
        }
    }

    fn v0(&self) -> impl Iterator<Item = &A::T> {
        self.layers.iter().flat_map(|l| &l.v0)
    }

    /// Fills `[layer][stage][filter][lane]` stage voltages for `batch`
    /// lanes with the initial voltages.
    pub(crate) fn reset_states(&self, states: &mut [A::T], batch: usize) {
        for (row, &v0) in states.chunks_exact_mut(batch).zip(self.v0()) {
            row.fill(v0);
        }
    }

    /// Resets `lanes` to the initial stage voltages if `reset`, advances
    /// them over every timestep of `steps` (time-major `[step][lane]
    /// [input]`), then writes the scaled logits `[lane][class]` into
    /// `logits` if given. Shapes must already be validated.
    pub(crate) fn run(
        &self,
        lanes: &mut Lanes<A>,
        reset: bool,
        steps: &[f64],
        logits: Option<&mut [f64]>,
    ) {
        self.run_observed(lanes, reset, steps, logits, |_, _| {});
    }

    /// [`Kernel::run`], calling `observe(states, hidden)` after every
    /// timestep with the `[layer][stage][filter][lane]` stage voltages and
    /// the `[filter][lane]` hidden activations it just computed.
    pub(crate) fn run_observed(
        &self,
        lanes: &mut Lanes<A>,
        reset: bool,
        steps: &[f64],
        logits: Option<&mut [f64]>,
        mut observe: impl FnMut(&[A::T], &[A::T]),
    ) {
        let (arith, batch) = (self.arith, lanes.batch);
        if reset {
            self.reset_states(&mut lanes.states, batch);
        }
        let split = self.layers[0].v0.len() * batch;
        for step in steps.chunks_exact(batch * self.input_dim) {
            for (i, row) in lanes.x0.chunks_exact_mut(batch).enumerate() {
                for (o, lane_in) in row.iter_mut().zip(step.chunks_exact(self.input_dim)) {
                    *o = arith.signal(lane_in[i]);
                }
            }
            let [hidden, class] = &mut lanes.act;
            let (st0, st1) = lanes.states.split_at_mut(split);
            let (l0, l1) = (&self.layers[0], &self.layers[1]);
            l0.step(arith, &lanes.x0, &mut lanes.acc, st0, hidden);
            l1.step(arith, hidden, &mut lanes.acc, st1, class);
            observe(&lanes.states, &lanes.act[0]);
        }
        if let Some(out) = logits {
            let classes = self.layers[1].fan_out;
            for (j, row) in lanes.act[1].chunks_exact(batch).enumerate() {
                for (lane, &v) in row.iter().enumerate() {
                    out[lane * classes + j] = arith.to_f64(v) * self.logit_scale;
                }
            }
        }
    }
}

impl<A: Arith> Lanes<A> {
    pub(crate) fn batch(&self) -> usize {
        self.batch
    }

    pub(crate) fn arith(&self) -> A {
        self.arith
    }

    /// Values per lane across every layer's stage voltages.
    pub(crate) fn state_len(&self) -> usize {
        self.state_len
    }

    /// Lane `lane`'s wire-format stage voltages.
    pub(crate) fn export(&self, lane: usize, out: &mut [f64]) {
        for (o, row) in out.iter_mut().zip(self.states.chunks_exact(self.batch)) {
            *o = self.arith.to_f64(row[lane]);
        }
    }

    pub(crate) fn import(&mut self, lane: usize, state: &[f64]) {
        for (&v, row) in state.iter().zip(self.states.chunks_exact_mut(self.batch)) {
            row[lane] = self.arith.signal(v);
        }
    }

    pub(crate) fn rms(&self, lane: usize) -> f64 {
        let mut sum_sq = 0.0;
        for row in self.states.chunks_exact(self.batch) {
            let v = self.arith.to_f64(row[lane]);
            sum_sq += v * v;
        }
        (sum_sq / self.state_len as f64).sqrt()
    }

    pub(crate) fn states_are_finite(&self) -> bool {
        self.states
            .iter()
            .all(|&v| self.arith.to_f64(v).is_finite())
    }
}
