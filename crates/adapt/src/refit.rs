//! Budgeted filter-only refits with frozen crossbars.
//!
//! ADAPT-pNC's central claim is that the SO adaptive learnable filters
//! absorb sensor drift and variability without re-printing the crossbar.
//! [`refit_filters`] operationalizes that for a deployed snapshot: it
//! rebuilds the [`PrintedModel`], takes each minibatch's gradient from the
//! compiled `f64` kernel's reverse sweep at nominal conditions
//! ([`ptnc_infer::InferModel::loss_and_grad`], no autograd tape), and
//! applies SGD to *only* the per-stage filter betas (`log R`, `log C`,
//! [`filter_param_indices`]); crossbar weights `θ_w`/`θ_b`/`θ_d` and the
//! learnable-η activation are never written. Minibatches are drawn from the replay reservoir with the
//! counter-based RNG, so the whole refit is bit-identical for a given
//! `(snapshot, replay contents, config)` regardless of wall clock or
//! thread count. The optional wall-clock budget only ever stops the loop
//! *early*; the deterministic bound is the step budget.

use std::time::{Duration, Instant};

use adapt_pnc::models::PrintedModel;
use adapt_pnc::pdk::Pdk;
use adapt_pnc::persist::{self, ModelSnapshot, RestoreError};
use adapt_pnc::serve::ServeModel;
use ptnc_faultsim::mix4;
use ptnc_infer::InferModel;

use crate::replay::LabeledWindow;

/// Domain-separation word for minibatch draws ("refi").
const REFIT_STREAM: u64 = 0x7265_6669;

/// Crossbar tensors preceding the filter bank in each layer's parameter
/// block (`θ_w`, `θ_b`, `θ_d`).
const CROSSBAR_PARAMS: usize = 3;
/// Learnable-η activation tensors trailing each layer's parameter block.
const ACTIVATION_PARAMS: usize = 4;

/// Tuning knobs for one refit round.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitConfig {
    /// SGD steps to take — the deterministic budget. Must be positive.
    pub steps: usize,
    /// Minibatch size, clamped to the replay size. Must be positive.
    pub batch: usize,
    /// SGD learning rate. Must be positive.
    pub lr: f64,
    /// SGD momentum, in `[0, 1)`.
    pub momentum: f64,
    /// Seed for minibatch selection. The runtime derives a fresh value per
    /// refit round so successive rounds see different batches.
    pub seed: u64,
    /// Optional wall-clock budget. `None` keeps the refit fully
    /// deterministic; `Some` may stop early (recorded in the report) and
    /// is for latency-bound deployments that accept run-to-run variation
    /// in *how many* of the deterministic steps execute.
    pub budget: Option<Duration>,
}

impl Default for RefitConfig {
    fn default() -> Self {
        RefitConfig {
            steps: 40,
            batch: 8,
            lr: 5e-3,
            momentum: 0.9,
            seed: 0x5f17,
            budget: None,
        }
    }
}

/// Why a refit could not run.
#[derive(Debug)]
pub enum RefitError {
    /// The replay buffer had no windows to fit against.
    EmptyReplay,
    /// A replay window's flattened length disagrees with the model's input
    /// dimension or with the other windows.
    WindowShape {
        /// Flattened length expected of every window.
        expected: usize,
        /// Offending window's flattened length.
        found: usize,
    },
    /// A label lies outside the model's class range.
    LabelRange {
        /// Number of classes the model predicts.
        classes: usize,
        /// Offending label.
        found: usize,
    },
    /// The snapshot could not be rebuilt into a trainable model.
    Restore(RestoreError),
    /// The configuration is out of range.
    BadConfig(&'static str),
}

impl std::fmt::Display for RefitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefitError::EmptyReplay => write!(f, "replay buffer is empty"),
            RefitError::WindowShape { expected, found } => write!(
                f,
                "replay window length {found} does not match expected {expected}"
            ),
            RefitError::LabelRange { classes, found } => {
                write!(f, "label {found} out of range for {classes} classes")
            }
            RefitError::Restore(e) => write!(f, "snapshot restore failed: {e}"),
            RefitError::BadConfig(what) => write!(f, "bad refit config: {what}"),
        }
    }
}

impl std::error::Error for RefitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RefitError::Restore(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RestoreError> for RefitError {
    fn from(e: RestoreError) -> Self {
        RefitError::Restore(e)
    }
}

/// What one refit round did.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitReport {
    /// SGD steps that updated parameters (excludes skipped steps).
    pub steps_taken: usize,
    /// Steps skipped because the minibatch loss was non-finite.
    pub skipped_non_finite: usize,
    /// Loss of the first evaluated minibatch (NaN if every step skipped).
    pub initial_loss: f64,
    /// Loss of the last evaluated minibatch (NaN if every step skipped).
    pub final_loss: f64,
    /// True when the wall-clock budget stopped the loop before the step
    /// budget was spent.
    pub budget_exhausted: bool,
}

/// Indices into [`PrintedModel::parameters`] that belong to the filter
/// banks: per layer, the `2 × stages` interleaved `(log R, log C)` tensors
/// sitting between the crossbar triple and the activation quadruple.
pub fn filter_param_indices(stages: usize, layers: usize) -> Vec<usize> {
    let per_layer = CROSSBAR_PARAMS + 2 * stages + ACTIVATION_PARAMS;
    (0..layers)
        .flat_map(|l| {
            let base = l * per_layer + CROSSBAR_PARAMS;
            base..base + 2 * stages
        })
        .collect()
}

/// Re-fits only the SO-LF filter betas of `snap` against the replay
/// `windows`, returning the adapted model and a step-by-step account.
///
/// Crossbar and activation parameters are bit-identical before and after
/// (for a snapshot inside the printable box): only the filter betas are
/// ever updated. The adapted model is projected back into the printable
/// PDK box after each step.
pub fn refit_filters(
    snap: &ModelSnapshot,
    windows: &[LabeledWindow],
    cfg: &RefitConfig,
) -> Result<(PrintedModel, RefitReport), RefitError> {
    if cfg.steps == 0 {
        return Err(RefitError::BadConfig("steps must be positive"));
    }
    if cfg.batch == 0 {
        return Err(RefitError::BadConfig("batch must be positive"));
    }
    if !(cfg.lr > 0.0 && cfg.lr.is_finite()) {
        return Err(RefitError::BadConfig("lr must be positive and finite"));
    }
    if !(0.0..1.0).contains(&cfg.momentum) {
        return Err(RefitError::BadConfig("momentum must be in [0, 1)"));
    }
    if windows.is_empty() {
        return Err(RefitError::EmptyReplay);
    }

    let model = persist::restore(snap)?;
    let dim = model.input_dim();
    let classes = model.num_classes();
    let window_len = windows[0].steps.len();
    if window_len == 0 || !window_len.is_multiple_of(dim) {
        return Err(RefitError::WindowShape {
            expected: dim,
            found: window_len,
        });
    }
    for w in windows {
        if w.steps.len() != window_len {
            return Err(RefitError::WindowShape {
                expected: window_len,
                found: w.steps.len(),
            });
        }
        if w.label >= classes {
            return Err(RefitError::LabelRange {
                classes,
                found: w.label,
            });
        }
    }
    let t = window_len / dim;

    let params = model.parameters();
    let stages = model.order().stages();
    let per_layer = CROSSBAR_PARAMS + 2 * stages + ACTIVATION_PARAMS;
    assert_eq!(
        params.len() % per_layer,
        0,
        "parameter list does not tile into per-layer blocks"
    );
    let filter_idx = filter_param_indices(stages, params.len() / per_layer);
    let spec = ServeModel::spec_of(&model);
    // Where each parameter tensor starts in the flat gradient.
    let offsets: Vec<usize> = params
        .iter()
        .scan(0, |at, p| {
            let start = *at;
            *at += p.len();
            Some(start)
        })
        .collect();
    let mut grad = vec![0.0; params.iter().map(|p| p.len()).sum()];
    let mut velocity: Vec<Vec<f64>> = filter_idx
        .iter()
        .map(|&i| vec![0.0; params[i].len()])
        .collect();
    let pdk = Pdk::paper_default();
    let n = windows.len() as u64;
    let batch = cfg.batch.min(windows.len());

    let started = Instant::now();
    let mut report = RefitReport {
        steps_taken: 0,
        skipped_non_finite: 0,
        initial_loss: f64::NAN,
        final_loss: f64::NAN,
        budget_exhausted: false,
    };

    for step in 0..cfg.steps {
        if let Some(budget) = cfg.budget {
            if started.elapsed() >= budget {
                report.budget_exhausted = true;
                break;
            }
        }

        // Counter-based minibatch draw: pure function of (seed, step, i).
        let picked: Vec<&LabeledWindow> = (0..batch)
            .map(|i| {
                let idx = mix4(cfg.seed, REFIT_STREAM, step as u64, i as u64) % n;
                &windows[idx as usize]
            })
            .collect();

        // Stack time-major: step `tt` holds every picked window's input at
        // `tt`, the layout `loss_and_grad` expects.
        let mut data = Vec::with_capacity(t * batch * dim);
        for tt in 0..t {
            for w in &picked {
                data.extend_from_slice(&w.steps[tt * dim..(tt + 1) * dim]);
            }
        }
        let labels: Vec<usize> = picked.iter().map(|w| w.label).collect();

        let values: Vec<Vec<f64>> = params.iter().map(|p| p.to_vec()).collect();
        let loss_value = InferModel::build(spec, &values)
            .ok()
            .and_then(|engine| {
                engine
                    .loss_and_grad(None, &data, batch, &labels, &mut grad)
                    .ok()
            })
            .unwrap_or(f64::NAN);
        if !loss_value.is_finite() {
            // A poisoned minibatch must not poison the betas: drop the
            // gradient and move on to the next deterministic draw.
            report.skipped_non_finite += 1;
            continue;
        }
        if report.initial_loss.is_nan() {
            report.initial_loss = loss_value;
        }
        report.final_loss = loss_value;

        // SGD with momentum on the filter betas only, then re-project them
        // into the printable box.
        for (&i, v) in filter_idx.iter().zip(&mut velocity) {
            let g = &grad[offsets[i]..offsets[i] + v.len()];
            let mut data = values[i].clone();
            for ((x, v), &g) in data.iter_mut().zip(v.iter_mut()).zip(g) {
                *v = cfg.momentum * *v + g;
                *x -= cfg.lr * *v;
            }
            params[i].set_data(data);
        }
        model.project(&pdk);
        report.steps_taken += 1;
    }

    Ok((model, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_pnc::models::PrintedModel;
    use ptnc_tensor::init;

    const DIM: usize = 2;
    const CLASSES: usize = 3;
    const T: usize = 10;

    fn fixture_model(seed: u64) -> PrintedModel {
        PrintedModel::adapt_pnc(DIM, 4, CLASSES, &mut init::rng(seed))
    }

    /// Windows labeled by a *different* model's argmax predictions, so the
    /// refit has a real (nontrivial, attainable-by-filters) target.
    fn fixture_windows(target: &PrintedModel, n: usize) -> Vec<LabeledWindow> {
        use adapt_pnc::serve::ServeModel;
        let compiled = ServeModel::from_json(&persist::to_json(target)).unwrap();
        let engine = compiled.engine();
        (0..n)
            .map(|w| {
                let steps: Vec<f64> = (0..T * DIM)
                    .map(|i| {
                        let u = ptnc_faultsim::unit(99, w as u64, i as u64, 0);
                        (u * 2.0 - 1.0) * 0.8
                    })
                    .collect();
                let logits = engine.run_batch(&steps, 1).unwrap();
                let label = logits
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                LabeledWindow {
                    stream: w,
                    steps,
                    label,
                }
            })
            .collect()
    }

    #[test]
    fn refit_reduces_loss_and_freezes_the_crossbar_bitwise() {
        let deployed = fixture_model(1);
        let snap = persist::snapshot(&deployed);
        let windows = fixture_windows(&fixture_model(2), 24);
        let cfg = RefitConfig {
            steps: 60,
            batch: 8,
            lr: 2e-2,
            ..RefitConfig::default()
        };
        let (adapted, report) = refit_filters(&snap, &windows, &cfg).unwrap();
        assert_eq!(report.steps_taken, 60);
        assert_eq!(report.skipped_non_finite, 0);
        assert!(!report.budget_exhausted);
        assert!(
            report.final_loss < report.initial_loss,
            "loss did not improve: {} -> {}",
            report.initial_loss,
            report.final_loss
        );

        // Crossbar + activation bitwise identical; filters moved.
        let before = snap.parameters.clone();
        let after = persist::snapshot(&adapted).parameters;
        let stages = deployed.order().stages();
        let filter_idx = filter_param_indices(stages, before.len() / (7 + 2 * stages));
        let mut filters_moved = false;
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if filter_idx.contains(&i) {
                filters_moved |= b != a;
            } else {
                assert_eq!(b, a, "non-filter parameter {i} changed during refit");
            }
        }
        assert!(filters_moved, "refit never updated any filter beta");
    }

    #[test]
    fn refit_is_bitwise_deterministic() {
        let snap = persist::snapshot(&fixture_model(3));
        let windows = fixture_windows(&fixture_model(4), 12);
        let cfg = RefitConfig {
            steps: 20,
            ..RefitConfig::default()
        };
        let run = || {
            let (m, r) = refit_filters(&snap, &windows, &cfg).unwrap();
            (persist::to_json(&m), r)
        };
        let (json_a, rep_a) = run();
        let (json_b, rep_b) = run();
        assert_eq!(json_a, json_b, "refit output diverged between runs");
        assert_eq!(rep_a, rep_b);
    }

    #[test]
    fn zero_wall_clock_budget_stops_before_any_step() {
        let snap = persist::snapshot(&fixture_model(5));
        let windows = fixture_windows(&fixture_model(6), 4);
        let cfg = RefitConfig {
            steps: 50,
            budget: Some(Duration::ZERO),
            ..RefitConfig::default()
        };
        let (adapted, report) = refit_filters(&snap, &windows, &cfg).unwrap();
        assert_eq!(report.steps_taken, 0);
        assert!(report.budget_exhausted);
        assert_eq!(persist::snapshot(&adapted).parameters, snap.parameters);
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        let snap = persist::snapshot(&fixture_model(7));
        let cfg = RefitConfig::default();
        assert!(matches!(
            refit_filters(&snap, &[], &cfg),
            Err(RefitError::EmptyReplay)
        ));

        let bad_len = vec![LabeledWindow {
            stream: 0,
            steps: vec![0.0; DIM + 1],
            label: 0,
        }];
        assert!(matches!(
            refit_filters(&snap, &bad_len, &cfg),
            Err(RefitError::WindowShape { .. })
        ));

        let bad_label = vec![LabeledWindow {
            stream: 0,
            steps: vec![0.0; DIM * 4],
            label: CLASSES,
        }];
        assert!(matches!(
            refit_filters(&snap, &bad_label, &cfg),
            Err(RefitError::LabelRange { .. })
        ));

        let zero_steps = RefitConfig {
            steps: 0,
            ..RefitConfig::default()
        };
        let ok = vec![LabeledWindow {
            stream: 0,
            steps: vec![0.0; DIM * 4],
            label: 0,
        }];
        assert!(matches!(
            refit_filters(&snap, &ok, &zero_steps),
            Err(RefitError::BadConfig(_))
        ));
    }

    #[test]
    fn filter_indices_tile_between_crossbar_and_activation() {
        // Second-order model: per layer 3 crossbar + 4 filter + 4 η = 11.
        assert_eq!(filter_param_indices(2, 2), vec![3, 4, 5, 6, 14, 15, 16, 17]);
        let model = fixture_model(8);
        let per_layer = 7 + 2 * model.order().stages();
        assert_eq!(model.parameters().len() % per_layer, 0);
    }
}
