//! Sensor-fault robustness sweeps: accuracy-degradation curves under
//! deterministic runtime fault injection ([`ptnc_faultsim`]) and device
//! aging, scored through both the raw and the guarded inference paths.
//!
//! One grid point = (model, fault kind, severity). For every point the
//! test set is corrupted by a seeded fault schedule, then scored on
//! Monte-Carlo variation instances three ways: clean input, faulted input
//! through the unguarded [`InferModel::run_batch`] path (which NaN bursts
//! poison), and faulted input through the guarded path. Device
//! conductance-drift points ride the same grid with clean inputs and aged
//! instances.
//!
//! Determinism contract: fault values are counter-based on
//! `(schedule seed, kind, channel, timestep)` and variation noise on
//! `(sweep seed, trial)`, and grid points fan out through
//! [`ParallelRunner`] with ordered collection — the sweep (and its JSONL
//! rendering) is byte-identical for any thread count. Common random
//! numbers across the grid: every severity and every model sees the same
//! fault pattern and the same variation draws, so curve differences are
//! signal, not sampling jitter.

use ptnc_datasets::Dataset;
use ptnc_faultsim::{ConductanceDrift, FaultKind, FaultSchedule, FaultSpec, ProgressiveDrift};
use ptnc_infer::{accuracy, GuardConfig, Health, InferModel, InputGuard, VariationSample};
use serde::{Deserialize, Serialize};

use crate::eval::dataset_to_steps;
use crate::parallel::{rng_for, streams, ParallelRunner};
use crate::serve::ServeModel;
use crate::variation::VariationConfig;

/// Grid and scoring parameters of a robustness sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessConfig {
    /// Fault kinds to sweep.
    pub kinds: Vec<FaultKind>,
    /// Severities in `[0, 1]` scored per kind.
    pub severities: Vec<f64>,
    /// Conductance-drift rates (relative change per timestep) scored as
    /// additional grid points with clean inputs.
    pub drift_rates: Vec<f64>,
    /// Device age (timesteps) at which drift points are evaluated.
    pub drift_age_steps: u64,
    /// Monte-Carlo variation instances averaged per grid point.
    pub trials: usize,
    /// Variation distributions the instances are drawn from.
    pub variation: VariationConfig,
    /// Guard configuration for the guarded scoring path.
    pub guard: GuardConfig,
    /// Master seed: fault schedules and variation draws derive from it.
    pub seed: u64,
}

impl RobustnessConfig {
    /// The full evaluation grid: every fault kind at three severities,
    /// two drift rates, five variation trials per point.
    pub fn paper_default() -> Self {
        RobustnessConfig {
            kinds: FaultKind::ALL.to_vec(),
            severities: vec![0.25, 0.5, 1.0],
            drift_rates: vec![1e-5, 1e-4],
            drift_age_steps: 2_000,
            trials: 5,
            variation: VariationConfig::paper_default(),
            guard: GuardConfig::default_policy(),
            seed: 0,
        }
    }

    /// A CI-sized grid: same kind × severity coverage, fewer trials and a
    /// single drift rate.
    pub fn smoke() -> Self {
        RobustnessConfig {
            drift_rates: vec![1e-4],
            trials: 2,
            ..Self::paper_default()
        }
    }

    /// Grid points this config expands to per model.
    pub fn points_per_model(&self) -> usize {
        self.kinds.len() * self.severities.len() + self.drift_rates.len()
    }
}

/// One scored grid point of a robustness sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Model label (e.g. `baseline_ptpnc`, `adapt_pnc`).
    pub model: String,
    /// Fault label ([`FaultKind::label`]) or `conductance_drift`.
    pub fault: String,
    /// Fault severity in `[0, 1]`, or the drift rate for drift points.
    pub severity: f64,
    /// Mean accuracy on clean inputs (variation only).
    pub clean_accuracy: f64,
    /// Mean accuracy on faulted inputs through the unguarded path.
    pub unguarded_accuracy: f64,
    /// Mean accuracy on faulted inputs through the guarded path.
    pub guarded_accuracy: f64,
    /// Fraction of samples the guard repaired.
    pub repaired_fraction: f64,
    /// Streams classified [`Health::Degraded`] at end of input.
    pub degraded_streams: usize,
    /// Streams classified [`Health::Faulted`] at end of input.
    pub faulted_streams: usize,
}

/// Renders sweep points as one JSON object per line (stable field order,
/// shortest-round-trip floats — byte-identical for identical points).
pub fn to_jsonl(points: &[SweepPoint]) -> String {
    let mut out = String::new();
    for p in points {
        out.push_str(&serde_json::to_string(p).expect("plain data serializes"));
        out.push('\n');
    }
    out
}

/// Sweeps every model over the fault grid of `cfg` against `test`,
/// fanning grid points out through `runner`. Points are returned in grid
/// order: models outermost, then fault kinds × severities, then drift
/// rates.
///
/// # Panics
///
/// Panics if `test` is empty, `cfg.trials` is zero, the grid is empty,
/// `cfg.guard` is internally inconsistent, or a model's input width does
/// not match the dataset.
pub fn sensor_fault_sweep(
    models: &[(String, InferModel)],
    test: &Dataset,
    cfg: &RobustnessConfig,
    runner: &ParallelRunner,
) -> Vec<SweepPoint> {
    assert!(!models.is_empty(), "no models to sweep");
    assert!(test.len() > 0, "empty test set");
    assert!(cfg.trials > 0, "need at least one variation trial");
    assert!(cfg.points_per_model() > 0, "empty fault grid");
    let (steps, labels) = dataset_to_steps(test);
    let clean = ServeModel::flatten_steps(&steps).expect("non-empty test set");
    let batch = test.len();
    cfg.guard.validate().expect("inconsistent guard config");

    // Expand the grid up front so one work item = one point.
    enum Stress {
        Fault(FaultSpec),
        Drift(f64),
    }
    let mut grid: Vec<(usize, Stress)> = Vec::new();
    for m in 0..models.len() {
        for &kind in &cfg.kinds {
            for &severity in &cfg.severities {
                grid.push((m, Stress::Fault(FaultSpec::new(kind, severity))));
            }
        }
        for &rate in &cfg.drift_rates {
            grid.push((m, Stress::Drift(rate)));
        }
    }

    runner.run(grid, |_, (m, stress)| {
        let (label, engine) = &models[m];
        let dim = engine.spec().input_dim;
        assert_eq!(dim, 1, "{label}: univariate sweep on a {dim}-input model");
        let classes = engine.spec().classes;
        let dist = (&cfg.variation).into();

        // Corrupt the test set once per point; the schedule seed is shared
        // across the whole grid, so severities differ only in scale.
        let (fault_label, severity, faulted, drift) = match stress {
            Stress::Fault(spec) => {
                let mut data = clean.clone();
                let schedule = FaultSchedule::new(cfg.seed).with_fault(spec.kind, spec.severity);
                schedule
                    .injector(0, batch * dim)
                    .corrupt_sequence(&mut data);
                (spec.kind.label().to_string(), spec.severity, data, None)
            }
            Stress::Drift(rate) => (
                "conductance_drift".to_string(),
                rate,
                clean.clone(),
                Some(ConductanceDrift::new(rate, cfg.seed)),
            ),
        };

        let mut clean_acc = 0.0;
        let mut unguarded_acc = 0.0;
        let mut guarded_acc = 0.0;
        let mut guard = InputGuard::new(cfg.guard, batch, dim).expect("config validated above");
        for trial in 0..cfg.trials {
            let mut rng = rng_for(cfg.seed, streams::EVAL_TRIAL, trial as u64);
            let mut sample = VariationSample::draw(engine.spec(), &dist, &mut rng);
            if let Some(d) = &drift {
                sample = d.drifted(&sample, cfg.drift_age_steps);
            }
            let instance = engine
                .perturbed(&sample)
                .expect("sample drawn on this engine's spec");
            let score = |logits: &[f64]| accuracy(logits, classes, &labels);
            clean_acc += score(
                &instance
                    .run_batch(&clean, batch)
                    .expect("steps flattened for this batch"),
            );
            unguarded_acc += score(
                &instance
                    .run_batch(&faulted, batch)
                    .expect("faulted buffer mirrors the clean one"),
            );
            guard.reset();
            guarded_acc += score(
                &instance
                    .run_batch_guarded(&faulted, batch, &mut guard)
                    .expect("guard sized for this batch"),
            );
        }
        let n = cfg.trials as f64;
        let stats = *guard.stats();
        let point = SweepPoint {
            model: label.clone(),
            fault: fault_label,
            severity,
            clean_accuracy: clean_acc / n,
            unguarded_accuracy: unguarded_acc / n,
            guarded_accuracy: guarded_acc / n,
            repaired_fraction: if stats.samples == 0 {
                0.0
            } else {
                stats.repaired as f64 / stats.samples as f64
            },
            degraded_streams: guard
                .health()
                .iter()
                .filter(|h| **h == Health::Degraded)
                .count(),
            faulted_streams: guard
                .health()
                .iter()
                .filter(|h| **h == Health::Faulted)
                .count(),
        };
        ptnc_telemetry::counter("robustness.point", 1);
        ptnc_telemetry::gauge("robustness.guarded_accuracy", point.guarded_accuracy);
        ptnc_telemetry::gauge("robustness.unguarded_accuracy", point.unguarded_accuracy);
        point
    })
}

/// Scoring parameters of an accuracy-over-time curve
/// ([`drift_accuracy_curve`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CurveConfig {
    /// Degradation rounds to score.
    pub rounds: usize,
    /// Monte-Carlo variation instances averaged per round.
    pub trials: usize,
    /// Variation distributions the instances are drawn from.
    pub variation: VariationConfig,
    /// Seed for the variation draws (common random numbers across rounds,
    /// so curve shape is degradation signal, not sampling jitter).
    pub seed: u64,
}

impl CurveConfig {
    /// Paper-sized curve: the default sweep's trial count per round.
    pub fn paper_default() -> Self {
        CurveConfig {
            rounds: 12,
            trials: 5,
            variation: VariationConfig::paper_default(),
            seed: 0,
        }
    }

    /// A CI-sized curve.
    pub fn smoke() -> Self {
        CurveConfig {
            rounds: 6,
            trials: 2,
            ..Self::paper_default()
        }
    }
}

/// One round of an accuracy-over-time curve under progressive
/// degradation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Degradation round (0 = pristine schedule start).
    pub round: usize,
    /// Largest ramped fault severity scheduled this round.
    pub severity: f64,
    /// Device age (timesteps) the variation instances were drifted to.
    pub device_age: u64,
    /// Mean accuracy over the variation trials.
    pub accuracy: f64,
    /// Logit entries that came back non-finite across all trials —
    /// non-zero means the degradation broke numerics, not just accuracy.
    pub non_finite_logits: usize,
}

/// Scores `engine_at(round)` against `test` for each round of a
/// [`ProgressiveDrift`] schedule: inputs are corrupted by the round's
/// ramped fault schedule and variation instances aged by the round's
/// device age, so the curve tracks a deployment degrading in place.
///
/// `engine_at` is consulted once per round, which is what lets callers
/// compare a frozen deployment (return the same engine every round)
/// against an adapting one (return whatever the adaptation loop last
/// published — see `ptnc-adapt`).
///
/// # Panics
///
/// Panics if `test` is empty, `cfg.rounds` or `cfg.trials` is zero, or an
/// engine's input width does not match the univariate sweep layout.
pub fn drift_accuracy_curve(
    mut engine_at: impl FnMut(usize) -> std::sync::Arc<InferModel>,
    test: &Dataset,
    schedule: &ProgressiveDrift,
    cfg: &CurveConfig,
) -> Vec<CurvePoint> {
    assert!(test.len() > 0, "empty test set");
    assert!(cfg.rounds > 0, "need at least one round");
    assert!(cfg.trials > 0, "need at least one variation trial");
    let (steps, labels) = dataset_to_steps(test);
    let clean = ServeModel::flatten_steps(&steps).expect("non-empty test set");
    let batch = test.len();
    let dist = (&cfg.variation).into();

    (0..cfg.rounds)
        .map(|round| {
            let r = round as u64;
            let engine = engine_at(round);
            let dim = engine.spec().input_dim;
            assert_eq!(dim, 1, "univariate curve on a {dim}-input model");
            let classes = engine.spec().classes;

            let mut faulted = clean.clone();
            schedule
                .schedule_at(r)
                .injector(0, batch * dim)
                .corrupt_sequence(&mut faulted);

            let mut acc = 0.0;
            let mut non_finite = 0usize;
            for trial in 0..cfg.trials {
                let mut rng = rng_for(cfg.seed, streams::EVAL_TRIAL, trial as u64);
                let sample = VariationSample::draw(engine.spec(), &dist, &mut rng);
                let aged = schedule.sample_at(&sample, r);
                let instance = engine
                    .perturbed(&aged)
                    .expect("sample drawn on this engine's spec");
                let logits = instance
                    .run_batch(&faulted, batch)
                    .expect("faulted buffer mirrors the clean one");
                non_finite += logits.iter().filter(|v| !v.is_finite()).count();
                acc += accuracy(&logits, classes, &labels);
            }
            let point = CurvePoint {
                round,
                severity: schedule
                    .faults()
                    .iter()
                    .map(|(_, ramp)| ramp.severity_at(r))
                    .fold(0.0, f64::max),
                device_age: schedule.age_at(r),
                accuracy: acc / cfg.trials as f64,
                non_finite_logits: non_finite,
            };
            ptnc_telemetry::counter("robustness.curve_point", 1);
            ptnc_telemetry::gauge("robustness.curve_accuracy", point.accuracy);
            point
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptnc_datasets::benchmark_by_name;
    use ptnc_datasets::preprocess::Preprocess;
    use ptnc_tensor::init;

    fn fixture() -> (Vec<(String, InferModel)>, Dataset) {
        let raw = benchmark_by_name("CBF", 0).unwrap();
        let ds = Preprocess::paper_default().apply(&raw);
        let test = ds.shuffle_split(0.6, 0.2, 0).test;
        let model = crate::models::PrintedModel::adapt_pnc(1, 4, 3, &mut init::rng(3));
        (
            vec![(
                "adapt_pnc".to_string(),
                ServeModel::from_live(&model).unwrap().into_engine(),
            )],
            test,
        )
    }

    fn tiny_cfg() -> RobustnessConfig {
        RobustnessConfig {
            kinds: vec![FaultKind::Dropout, FaultKind::SpikeNoise],
            severities: vec![0.0, 1.0],
            drift_rates: vec![1e-4],
            trials: 1,
            ..RobustnessConfig::smoke()
        }
    }

    #[test]
    fn sweep_covers_the_grid_in_order() {
        let (models, test) = fixture();
        let cfg = tiny_cfg();
        let points = sensor_fault_sweep(&models, &test, &cfg, &ParallelRunner::serial());
        assert_eq!(points.len(), cfg.points_per_model());
        assert_eq!(points[0].fault, "dropout");
        assert_eq!(points[0].severity, 0.0);
        assert_eq!(points[4].fault, "conductance_drift");
    }

    #[test]
    fn zero_severity_points_score_like_clean() {
        let (models, test) = fixture();
        let cfg = tiny_cfg();
        let points = sensor_fault_sweep(&models, &test, &cfg, &ParallelRunner::serial());
        let p = &points[0];
        assert_eq!(p.severity, 0.0);
        assert_eq!(p.clean_accuracy, p.unguarded_accuracy);
        assert_eq!(p.clean_accuracy, p.guarded_accuracy);
        assert_eq!(p.repaired_fraction, 0.0);
    }

    #[test]
    fn drift_curve_degrades_a_frozen_model_and_is_deterministic() {
        use ptnc_faultsim::DriftRamp;
        use std::sync::Arc;
        let (models, test) = fixture();
        let engine = Arc::new(models.into_iter().next().unwrap().1);
        let schedule = ProgressiveDrift::new(9)
            .with_fault(FaultKind::SpikeNoise, DriftRamp::new(0.0, 1.0, 6))
            .with_fault(FaultKind::BaselineDrift, DriftRamp::new(0.0, 0.8, 6))
            .with_device_drift(ConductanceDrift::new(1e-4, 9), 500);
        let cfg = CurveConfig {
            rounds: 7,
            trials: 1,
            ..CurveConfig::smoke()
        };
        let run = || drift_accuracy_curve(|_| Arc::clone(&engine), &test, &schedule, &cfg);
        let curve = run();
        assert_eq!(curve.len(), 7);
        assert_eq!(curve[0].severity, 0.0);
        assert_eq!(curve[0].device_age, 0);
        assert_eq!(curve[6].severity, 1.0);
        assert_eq!(curve[6].device_age, 3_000);
        assert!(
            curve[6].accuracy < curve[0].accuracy,
            "full-severity round should underperform the pristine round: {} vs {}",
            curve[6].accuracy,
            curve[0].accuracy
        );
        assert_eq!(run(), curve, "curve diverged between identical runs");
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let point = SweepPoint {
            model: "m".into(),
            fault: "dropout".into(),
            severity: 0.5,
            clean_accuracy: 0.9,
            unguarded_accuracy: 0.2,
            guarded_accuracy: 0.8,
            repaired_fraction: 0.1,
            degraded_streams: 3,
            faulted_streams: 1,
        };
        let text = to_jsonl(&[point.clone(), point]);
        assert_eq!(text.lines().count(), 2);
        let back: SweepPoint = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(back.fault, "dropout");
    }
}
