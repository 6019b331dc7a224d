//! Deterministic parallel execution for printed-model workloads.
//!
//! The workspace's tensors are `Rc`-based autodiff handles and therefore
//! deliberately **not** `Send`: parallelism happens *above* the tensor
//! level. This module provides the two pieces every fan-out needs on top of
//! the generic [`ptnc_runner`] layer (re-exported here):
//!
//! * [`ModelTemplate`] — a plain-data (`Send + Sync`) description of a
//!   trained [`PrintedModel`] from which each worker thread rebuilds a
//!   behaviorally identical thread-local replica,
//! * [`RawSteps`] — a plain-data copy of an input sequence that workers
//!   turn back into tensors.
//!
//! Determinism contract: every work item derives its RNG from
//! [`seed_split`]`(master_seed, stream, index)` instead of sharing a
//! sequential RNG, so fan-out results are bit-identical regardless of
//! thread count — the runner width changes wall-clock time, never numbers.

pub use ptnc_runner::{rng_for, seed_split, streams, ParallelRunner};

use ptnc_nn::FrozenParams;
use ptnc_tensor::Tensor;

use crate::models::{FilterOrder, PrintedModel};
use crate::pdk::Pdk;

/// A `Send + Sync` snapshot of a printed model's architecture and component
/// values, sufficient to rebuild a behaviorally identical replica on
/// another thread.
///
/// Captures the two pieces of forward-affecting state that live outside the
/// parameter tensors — the nominal coupling factor μ and the filter
/// discretization step Δt — so replicas match the original bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTemplate {
    input_dim: usize,
    hidden: usize,
    classes: usize,
    order: FilterOrder,
    mu_nominal: f64,
    dt: f64,
    params: FrozenParams,
}

impl ModelTemplate {
    /// Captures a model's architecture and every component value.
    pub fn capture(model: &PrintedModel) -> Self {
        ModelTemplate {
            input_dim: model.input_dim(),
            hidden: model.hidden(),
            classes: model.num_classes(),
            order: model.order(),
            mu_nominal: model.mu_nominal(),
            dt: model.layers()[0].filters().dt(),
            params: FrozenParams::capture(&model.parameters()),
        }
    }

    /// The captured parameter values (frozen, plain data).
    pub fn params(&self) -> &FrozenParams {
        &self.params
    }

    /// Rebuilds a replica with fresh (thread-local) tensors. The scaffold is
    /// built deterministically and every parameter is overwritten, so the
    /// replica's forward pass matches the captured model exactly.
    pub fn instantiate(&self) -> PrintedModel {
        let pdk = Pdk {
            dt: self.dt,
            ..Pdk::paper_default()
        };
        let mut rng = ptnc_tensor::init::rng(0);
        let model = PrintedModel::with_mu(
            self.input_dim,
            self.hidden,
            self.classes,
            self.order,
            &pdk,
            self.mu_nominal,
            &mut rng,
        );
        self.params.restore_into(&model.parameters());
        model
    }

    /// Refreshes the captured parameter values from `model` (e.g. once per
    /// epoch, after an optimizer step) without re-reading the architecture.
    pub fn refresh(&mut self, model: &PrintedModel) {
        self.params.refresh(&model.parameters());
    }
}

/// A `Send + Sync` copy of a time-major input sequence (`Vec` of
/// `[batch, dim]` tensors), for shipping inputs into worker threads.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSteps {
    dims: Vec<usize>,
    steps: Vec<Vec<f64>>,
}

impl RawSteps {
    /// Copies a sequence out of its tensors.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty (models reject empty sequences anyway).
    pub fn capture(steps: &[Tensor]) -> Self {
        assert!(!steps.is_empty(), "empty input sequence");
        RawSteps {
            dims: steps[0].dims().to_vec(),
            steps: steps.iter().map(|s| s.to_vec()).collect(),
        }
    }

    /// Rebuilds the sequence with fresh (thread-local) tensors.
    pub fn to_tensors(&self) -> Vec<Tensor> {
        self.steps
            .iter()
            .map(|data| Tensor::from_vec(&self.dims, data.clone()))
            .collect()
    }

    /// Rebuilds the sequence as a single time-major stacked tensor
    /// `[steps·batch, d]` — the layout `Tensor::concat(steps, 0)` produces —
    /// plus the step count. The fused training path takes this directly
    /// into [`PrintedModel::forward_time_major`](crate::models::PrintedModel::forward_time_major)
    /// instead of materialising one tensor per time step.
    pub fn to_stacked(&self) -> (Tensor, usize) {
        let steps = self.steps.len();
        let mut data = Vec::with_capacity(steps * self.steps[0].len());
        for s in &self.steps {
            data.extend_from_slice(s);
        }
        let mut dims = self.dims.clone();
        dims[0] *= steps;
        (Tensor::from_vec(&dims, data), steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptnc_tensor::init;

    #[test]
    fn template_replica_matches_original_forward() {
        let mut rng = init::rng(9);
        let model = PrintedModel::with_mu(
            2,
            5,
            3,
            FilterOrder::Second,
            &Pdk::paper_default(),
            1.0, // non-default μ must survive the round trip
            &mut rng,
        );
        let steps: Vec<Tensor> = (0..10)
            .map(|k| Tensor::full(&[4, 2], (k as f64 * 0.3).cos()))
            .collect();
        let template = ModelTemplate::capture(&model);
        let replica = template.instantiate();
        assert_eq!(replica.mu_nominal(), 1.0);
        let a = model.forward_nominal(&steps).to_vec();
        let b = replica.forward_nominal(&steps).to_vec();
        assert_eq!(a, b, "replica must be bit-identical");
    }

    #[test]
    fn refresh_tracks_parameter_updates() {
        let mut rng = init::rng(10);
        let model = PrintedModel::adapt_pnc(1, 3, 2, &mut rng);
        let mut template = ModelTemplate::capture(&model);
        let p0 = &model.parameters()[0];
        let mut bumped = p0.to_vec();
        bumped[0] += 0.125;
        p0.set_data(bumped.clone());
        template.refresh(&model);
        assert_eq!(template.instantiate().parameters()[0].to_vec(), bumped);
    }

    #[test]
    fn raw_steps_round_trip() {
        let steps: Vec<Tensor> = (0..4).map(|k| Tensor::full(&[2, 3], k as f64)).collect();
        let raw = RawSteps::capture(&steps);
        let back = raw.to_tensors();
        assert_eq!(back.len(), 4);
        for (a, b) in steps.iter().zip(&back) {
            assert_eq!(a.dims(), b.dims());
            assert_eq!(a.to_vec(), b.to_vec());
        }
    }
}
