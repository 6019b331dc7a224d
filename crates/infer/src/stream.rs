//! Incremental (one-timestep-per-call) inference for online sensor input.

use crate::error::InferError;
use crate::model::{InferModel, Scratch};

/// A streaming session over `batch` parallel sequences: each
/// [`StreamState::step`] call advances the filter states by one timestep
/// and returns the logits *as of that step*. Feeding a whole sequence step
/// by step yields exactly the final logits of
/// [`InferModel::run_batch`](crate::InferModel::run_batch) on the same
/// data — the recurrence is identical, only the call granularity differs.
#[derive(Debug)]
pub struct StreamState<'m> {
    model: &'m InferModel,
    scratch: Scratch,
    logits: Vec<f64>,
    steps_seen: usize,
}

impl<'m> StreamState<'m> {
    pub(crate) fn new(model: &'m InferModel, batch: usize) -> Result<Self, InferError> {
        let mut scratch = model.make_scratch(batch)?;
        model.forward(&mut scratch, true, &[], None);
        let logits = vec![0.0; batch * model.spec().classes];
        Ok(StreamState {
            model,
            scratch,
            logits,
            steps_seen: 0,
        })
    }

    /// The batch size this stream was opened for.
    pub fn batch(&self) -> usize {
        self.scratch.batch()
    }

    /// Timesteps consumed since creation or the last [`StreamState::reset`].
    pub fn steps_seen(&self) -> usize {
        self.steps_seen
    }

    /// Whether every internal filter-state value is finite. See the
    /// poisoning hazard on [`StreamState::step`]; this accessor lets
    /// callers audit state health between steps without tearing the
    /// session down.
    pub fn state_is_finite(&self) -> bool {
        self.scratch.states_are_finite()
    }

    /// Advances one timestep. `input` is `[batch × input_dim]`; the
    /// returned slice holds the current logits `[batch × classes]`, valid
    /// until the next call.
    ///
    /// # NaN poisoning hazard
    ///
    /// This path trusts its inputs: samples flow straight into the
    /// `a⊙state + b⊙input` filter recurrence, and because the decayed
    /// previous state is part of every update, a **single** NaN or ±∞
    /// sample contaminates the affected filter states *permanently* —
    /// every later logit of that sequence is NaN no matter how clean the
    /// subsequent input is, until [`StreamState::reset`]. Feed this API
    /// only data you have validated yourself; for raw sensor streams that
    /// can drop out or glitch, use the guarded path
    /// ([`InferModel::guarded_stream`](crate::InferModel::guarded_stream)
    /// or
    /// [`InferModel::run_batch_guarded`](crate::InferModel::run_batch_guarded)),
    /// which repairs invalid samples before they can touch filter state.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::ShapeMismatch`] if `input` has the wrong
    /// length; filter state is untouched on error.
    pub fn step(&mut self, input: &[f64]) -> Result<&[f64], InferError> {
        let spec = self.model.spec();
        let expected = self.scratch.batch() * spec.input_dim;
        if input.len() != expected {
            return Err(InferError::ShapeMismatch {
                what: "step input",
                expected,
                found: input.len(),
            });
        }
        self.model
            .forward(&mut self.scratch, false, input, Some(&mut self.logits));
        self.steps_seen += 1;
        Ok(&self.logits)
    }

    /// Rewinds the filter states to their initial voltages, ready for a
    /// fresh sequence. No allocation.
    pub fn reset(&mut self) {
        self.model.forward(&mut self.scratch, true, &[], None);
        self.steps_seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{InferModel, InferSpec};

    fn model() -> InferModel {
        let spec = InferSpec {
            input_dim: 2,
            hidden: 3,
            classes: 2,
            stages: 2,
            mu_nominal: 1.15,
            dt: 0.01,
            logit_scale: 4.0,
        };
        let params: Vec<Vec<f64>> = spec
            .param_lens()
            .iter()
            .enumerate()
            .map(|(k, &n)| (0..n).map(|i| 0.15 + 0.07 * (k + i) as f64).collect())
            .collect();
        InferModel::build(spec, &params).unwrap()
    }

    #[test]
    fn streaming_matches_batched_final_logits() {
        let m = model();
        let t_len = 12;
        let steps: Vec<f64> = (0..t_len * 2).map(|i| (i as f64 * 0.31).sin()).collect();
        let batched = m.run_batch(&steps, 1).unwrap();
        let mut stream = m.stream(1).unwrap();
        let mut last = Vec::new();
        for chunk in steps.chunks_exact(2) {
            last = stream.step(chunk).unwrap().to_vec();
        }
        assert_eq!(stream.steps_seen(), t_len);
        assert_eq!(last, batched, "stream final logits must equal batched");
    }

    #[test]
    fn reset_replays_identically() {
        let m = model();
        let steps: Vec<f64> = (0..10).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut stream = m.stream(1).unwrap();
        let mut first = Vec::new();
        for chunk in steps.chunks_exact(2) {
            first = stream.step(chunk).unwrap().to_vec();
        }
        stream.reset();
        assert_eq!(stream.steps_seen(), 0);
        let mut second = Vec::new();
        for chunk in steps.chunks_exact(2) {
            second = stream.step(chunk).unwrap().to_vec();
        }
        assert_eq!(first, second);
    }

    #[test]
    fn wrong_input_width_is_a_typed_error() {
        use crate::error::InferError;
        let m = model();
        let mut stream = m.stream(1).unwrap();
        assert_eq!(
            stream.step(&[0.1, 0.2, 0.3]).unwrap_err(),
            InferError::ShapeMismatch {
                what: "step input",
                expected: 2,
                found: 3,
            }
        );
        assert_eq!(stream.steps_seen(), 0, "failed step must not advance");
        assert_eq!(m.stream(0).unwrap_err(), InferError::ZeroBatch);
    }
}
