//! # ptnc-infer — graph-free inference for printed temporal models
//!
//! Every evaluation workload in the ADAPT-pNC reproduction — Table I
//! accuracy, the Fig. 5/7 variation sweeps, the Monte-Carlo robustness
//! trials — is pure forward-pass work. Running it through the reverse-mode
//! autograd graph in `ptnc-tensor` allocates tape nodes that are never
//! backpropagated. This crate is the serving path: a trained model is
//! *frozen* into an [`InferModel`] of plain `Vec<f64>` weight buffers, and
//! the SO-LF filter recurrence + `ptanh` + crossbar layers execute with
//! preallocated, reusable [`Scratch`] buffers — no tensors, no graph, no
//! per-step allocation.
//!
//! The crate is deliberately free of any dependency on the tensor or core
//! crates (only the vendored `rand` for variation sampling and the
//! zero-dependency `ptnc-telemetry` for guard-health counters), so the
//! dependency arrow points *from* the design-time stack *to* the runtime:
//! `adapt-pnc` freezes models into this crate's types and routes its
//! Monte-Carlo evaluation through them.
//!
//! ## The execution modes
//!
//! * **Batched** — [`InferModel::run_batch`] processes `B` sequences at
//!   once, every inner loop running over contiguous batch lanes (the
//!   serving fast path).
//! * **Streaming** — [`StreamState`] advances one timestep per call for
//!   online sensor input; feeding a sequence step by step produces exactly
//!   the logits of the batched run.
//! * **Sessions** — [`StreamSession`] is the owned, `Arc`-backed spelling
//!   of streaming for serving tiers: resident filter state persists
//!   between chunk submissions ([`InferModel::run_chunk_into`]), can be
//!   gathered into / scattered out of shared [`Scratch`] lanes for batched
//!   forwards, and survives model hot-reloads (pin-old vs reset-on-reload
//!   is the caller's policy via [`StreamSession::adopt_model`]).
//! * **Perturbed** — [`InferModel::perturbed`] compiles a cheap per-trial
//!   instance from a [`VariationSample`], so Monte-Carlo variation trials
//!   share one frozen model across threads (`InferModel` is plain data and
//!   therefore `Send + Sync`).
//! * **Training** — [`InferModel::loss_and_grad`] runs the `f64` kernel
//!   forward while stashing its stage voltages, then a reverse sweep, and
//!   returns the mean cross-entropy with its gradient for every parameter.
//!   The design-time trainer's Monte-Carlo samples and the filter refit
//!   run on it instead of the autograd tape.
//! * **Guarded** — [`InferModel::guarded_stream`] and
//!   [`InferModel::run_batch_guarded`] place an [`InputGuard`] in front of
//!   the recurrence: NaN/Inf/out-of-range samples are repaired by a
//!   configurable [`DegradePolicy`] before they can poison filter state,
//!   and each stream carries a [`Health`] classification derived from its
//!   recent fault density.
//!
//! ## Numerical parity
//!
//! The forward recurrences replicate the autograd kernels
//! operation-for-operation (same accumulation order in the crossbar
//! mat-mul, same `a⊙state + b⊙input` filter step, same `ptanh` transfer),
//! so frozen logits match the autograd forward to ≈1 ulp — well within the
//! 1e-9 parity bound the integration tests assert. [`VariationSample`]
//! draws its multipliers in exactly the order the design-time model
//! samples its `ModelNoise`, so a seeded trial sees identical noise on
//! both paths.
//!
//! ## Fallible request path
//!
//! Every request-shaped entry point — batched runs, scratch allocation,
//! streaming steps, guard construction — validates its input and returns
//! a typed [`InferError`] instead of panicking, so a serving layer can
//! shed malformed requests without losing the worker.

mod adjoint;
mod error;
mod guard;
mod kernel;
mod model;
mod precision;
mod session;
mod stream;
mod variation;

pub use error::InferError;
pub use guard::{DegradePolicy, GuardConfig, GuardStats, GuardedStream, Health, InputGuard};
pub use model::{BuildError, InferModel, InferSpec, Scratch};
pub use precision::{Precision, PrecisionParseError, QFormat};
pub use session::StreamSession;
pub use stream::StreamState;
pub use variation::{LayerVariation, VariationDistribution, VariationSample};

/// Classification accuracy of flat logits `[batch × classes]` against
/// integer labels. Ties resolve to the first maximum — the same convention
/// as the design-time `argmax_axis`, so both evaluation paths agree on
/// every prediction.
///
/// # Panics
///
/// Panics if `classes == 0` or `logits.len() != labels.len() * classes`.
pub fn accuracy(logits: &[f64], classes: usize, labels: &[usize]) -> f64 {
    assert!(classes > 0, "zero classes");
    assert_eq!(
        logits.len(),
        labels.len() * classes,
        "logits length {} does not match {} labels x {classes} classes",
        logits.len(),
        labels.len()
    );
    let mut correct = 0usize;
    for (b, &label) in labels.iter().enumerate() {
        let row = &logits[b * classes..(b + 1) * classes];
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        if best == label {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

/// Mean cross-entropy of flat logits `[batch × classes]` against integer
/// labels: a max-shifted log-softmax per row, the label entries summed in
/// row order, times `−1/batch` — the design-time loss's arithmetic, so
/// equal logits give an equal loss.
///
/// # Panics
///
/// Panics if `classes == 0`, `logits.len() != labels.len() * classes` or a
/// label is not below `classes`.
pub fn cross_entropy(logits: &[f64], classes: usize, labels: &[usize]) -> f64 {
    assert!(classes > 0, "zero classes");
    assert_eq!(
        logits.len(),
        labels.len() * classes,
        "logits length {} does not match {} labels x {classes} classes",
        logits.len(),
        labels.len()
    );
    adjoint::cross_entropy(logits, classes, labels, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_ties_resolve_to_first() {
        // Row [1, 1]: argmax is class 0.
        assert_eq!(accuracy(&[1.0, 1.0], 2, &[0]), 1.0);
        assert_eq!(accuracy(&[1.0, 1.0], 2, &[1]), 0.0);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = [0.1, 0.9, 0.8, 0.2, 0.3, 0.7];
        assert_eq!(accuracy(&logits, 2, &[1, 0, 0]), 2.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn accuracy_rejects_bad_shape() {
        accuracy(&[1.0, 2.0, 3.0], 2, &[0]);
    }
}
