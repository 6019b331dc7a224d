//! Closed-loop adaptation harness: accuracy-over-time curves for a
//! deployment degrading under progressive sensor drift and device aging,
//! **adapted** (the `ptnc-adapt` detect → refit → hot-swap loop runs
//! against a live server) versus **frozen** (the same deployment left
//! alone).
//!
//! ```text
//! cargo run -p ptnc-bench --release --bin adapt_loop
//! PNC_SMOKE=1 PNC_TELEMETRY=BENCH_adapt.jsonl cargo run -p ptnc-bench --release --bin adapt_loop
//! ```
//!
//! The workload: a pseudo-labeled agreement set (the clean deployment's
//! own predictions on clean inputs) is replayed each round through a
//! [`ProgressiveDrift`] schedule ramping `baseline_drift` severity while
//! conductance drift ages the device. The adapted arm feeds per-stream
//! resident-state RMS statistics into a CUSUM drift detector, captures
//! corrupted windows with pseudo-labels into a bounded replay reservoir,
//! and — when tripped — refits only the SO-LF filter betas (crossbars
//! bitwise frozen) and atomically redeploys through the serving registry
//! while background traffic hammers the server.
//!
//! Knobs: `PNC_SMOKE=1` shrinks the workload; `PNC_ADAPT_STREAMS`
//! (detector streams), `PNC_ADAPT_REFIT_STEPS` (SGD steps per refit
//! round), `PNC_ADAPT_BUDGET_MS` (wall-clock refit budget, 0 = none —
//! note a budget trades determinism for latency, so the thread-parity
//! check is skipped when set) override it. `PNC_ADAPT_ENFORCE=1` exits
//! non-zero unless the adapted arm strictly beats the frozen arm at
//! end-of-run, every logit stayed finite, every adaptation swap landed
//! under live traffic, and the loop is bit-identical across serve worker
//! counts 1/2/5. A JSON summary is written to `PNC_ADAPT_JSON` (default
//! `BENCH_adapt.json`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adapt_pnc::faultsim::{ConductanceDrift, DriftRamp, FaultKind, ProgressiveDrift};
use adapt_pnc::infer::InferModel;
use adapt_pnc::models::FilterOrder;
use adapt_pnc::persist;
use adapt_pnc::robustness::{drift_accuracy_curve, CurveConfig, CurvePoint};
use adapt_pnc::serve::ServeModel;
use adapt_pnc::training::{train_with_runner, TrainConfig};
use adapt_pnc::variation::VariationConfig;
use ptnc_adapt::{AdaptConfig, AdaptController, DetectorConfig, RefitConfig};
use ptnc_bench::{or_exit, print_row, print_rule, Config, ConfigError};
use ptnc_datasets::preprocess::Preprocess;
use ptnc_datasets::{benchmark_by_name, Dataset, LabeledSeries};
use ptnc_serve::{BatchConfig, ModelRegistry, ReloadOutcome, Server};

const HIDDEN: usize = 6;
const SEED: u64 = 11;
/// Statistic observations fed per stream per round (must cover the
/// detector's baseline window within the pristine round 0).
const OBS_PER_ROUND: usize = 8;
/// Windows captured into the replay reservoir per round.
const CAPTURE_PER_ROUND: usize = 16;

struct Workload {
    streams: usize,
    refit_steps: usize,
    budget: Option<Duration>,
    rounds: usize,
    samples: usize,
}

impl Workload {
    fn parse(config: &Config) -> Result<Self, ConfigError> {
        let smoke = config.smoke();
        let (streams, refit_steps, rounds, samples) = if smoke {
            (2, 60, 5, 24)
        } else {
            (4, 120, 8, 36)
        };
        let budget_ms: u64 = config.parse_or("PNC_ADAPT_BUDGET_MS", 0)?;
        Ok(Workload {
            streams: config.parse_or("PNC_ADAPT_STREAMS", streams)?,
            refit_steps: config.parse_or("PNC_ADAPT_REFIT_STEPS", refit_steps)?,
            budget: (budget_ms > 0).then(|| Duration::from_millis(budget_ms)),
            rounds,
            samples,
        })
    }
}

/// The agreement set: test series relabeled with the clean deployment's
/// own argmax predictions, so round-0 accuracy measures self-consistency
/// and every later round measures how much drift broke it.
fn pseudo_labeled(test: &Dataset, engine: &InferModel) -> Dataset {
    let items: Vec<LabeledSeries> = test
        .iter()
        .map(|s| {
            let logits = engine
                .run_batch(&s.values, 1)
                .expect("series runs on the deployment");
            let label = logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .expect("non-empty logits")
                .0;
            LabeledSeries::new(s.values.clone(), label)
        })
        .collect();
    Dataset::new("cbf-agreement", test.num_classes(), items)
}

/// Mild variation so Monte-Carlo instance noise stays below the drift
/// signal the two arms are compared on.
fn curve_cfg(rounds: usize) -> CurveConfig {
    CurveConfig {
        rounds,
        trials: 2,
        variation: VariationConfig {
            delta: 0.03,
            mu_lo: 1.0,
            mu_hi: 1.05,
            v0_amp: 0.01,
        },
        seed: SEED,
    }
}

fn schedule(rounds: usize) -> ProgressiveDrift {
    ProgressiveDrift::new(SEED)
        .with_fault(
            FaultKind::BaselineDrift,
            DriftRamp::new(0.0, 0.9, rounds.saturating_sub(1) as u64),
        )
        .with_device_drift(ConductanceDrift::new(1e-5, SEED), 400)
}

/// Per-sample corrupted windows for one round, mirroring the curve's
/// layout: the injector sees sample `s` as channel `s`, timestep `k`.
fn corrupted_windows(clean: &Dataset, sched: &ProgressiveDrift, round: u64) -> Vec<Vec<f64>> {
    let n = clean.len();
    let t = clean.series_len();
    let mut flat = vec![0.0; t * n];
    for (s, item) in clean.iter().enumerate() {
        for k in 0..t {
            flat[k * n + s] = item.values[k];
        }
    }
    sched
        .schedule_at(round)
        .injector(0, n)
        .corrupt_sequence(&mut flat);
    (0..n)
        .map(|s| (0..t).map(|k| flat[k * n + s]).collect())
        .collect()
}

struct LoopRun {
    curve: Vec<CurvePoint>,
    adapt_rounds: u64,
    swaps_landed: u64,
    refit_steps_total: u64,
    non_finite_states: u64,
    hammer_served: u64,
    hammer_failed: u64,
    final_snapshot: String,
}

/// One full closed-loop run: serve the deployment with `workers` worker
/// threads under background traffic, score the drift curve round by
/// round, and let the controller adapt whenever its detectors trip.
fn run_adapted_loop(
    wl: &Workload,
    agreement: &Dataset,
    deployed_json: &str,
    workers: usize,
) -> LoopRun {
    let dir = std::env::temp_dir().join(format!("ptnc-adapt-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("model-w{workers}.json"));
    persist::write_atomic(&path, deployed_json.as_bytes()).expect("seed snapshot");
    let reg = Arc::new(ModelRegistry::open(&path).expect("open registry"));
    let server = Arc::new(
        Server::start(
            Arc::clone(&reg),
            BatchConfig {
                max_batch: 4,
                max_steps: agreement.series_len().max(64),
                batch_window: Duration::from_micros(100),
                workers,
                ..BatchConfig::default()
            },
        )
        .expect("start server"),
    );

    // Background traffic for the entire loop: every adaptation swap must
    // land while requests are in flight.
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let hammer = {
        let stop = Arc::clone(&stop);
        let served = Arc::clone(&served);
        let failed = Arc::clone(&failed);
        let window: Vec<f64> = agreement
            .iter()
            .next()
            .expect("non-empty set")
            .values
            .clone();
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                match server.infer("adapt-hammer", &window) {
                    Ok(out) => {
                        assert!(out.iter().all(|v| v.is_finite()), "hammer saw non-finite");
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        })
    };

    let mut controller = AdaptController::new(
        AdaptConfig {
            detector: DetectorConfig {
                baseline_window: 6,
                slack: 0.5,
                threshold: 3.0,
                ..DetectorConfig::default()
            },
            refit: RefitConfig {
                steps: wl.refit_steps,
                lr: 1e-1,
                budget: wl.budget,
                ..RefitConfig::default()
            },
            replay_capacity: 64,
            min_replay: 8,
            ..AdaptConfig::default()
        },
        wl.streams,
    );
    let sched = schedule(wl.rounds);
    let mut adapt_rounds = 0u64;
    let mut swaps_landed = 0u64;
    let mut refit_steps_total = 0u64;
    let mut non_finite_states = 0u64;

    let curve = drift_accuracy_curve(
        |round| {
            let r = round as u64;
            let engine = reg.current();
            let windows = corrupted_windows(agreement, &sched, r);

            // Replay capture: corrupted traffic with pseudo-labels.
            for (s, item) in agreement.iter().take(CAPTURE_PER_ROUND).enumerate() {
                controller.record_window(s % wl.streams, windows[s].clone(), item.label);
            }

            // Statistics export: resident-state RMS per stream, straight
            // off the inference scratch the serving path uses.
            let mut scratch = engine.make_scratch(1).expect("batch 1 scratch");
            let mut logits = vec![0.0; engine.spec().classes];
            for w in 0..OBS_PER_ROUND {
                for s in 0..wl.streams {
                    let idx = (w * wl.streams + s) % windows.len();
                    engine
                        .run_batch_into(&windows[idx], 1, &mut scratch, &mut logits)
                        .expect("window runs on the deployment");
                    let rms = scratch.lane_state_rms(0).expect("lane 0 exists");
                    if !rms.is_finite() {
                        non_finite_states += 1;
                    }
                    controller.observe_state(s, rms);
                }
            }

            if controller.should_adapt() {
                let outcome = controller.adapt(&reg).expect("adaptation round runs");
                adapt_rounds += 1;
                refit_steps_total += outcome.report.steps_taken as u64;
                if matches!(outcome.reload, ReloadOutcome::Swapped(_)) {
                    swaps_landed += 1;
                }
                server.note_adaptation("adapt-hammer");
            }
            reg.current()
        },
        agreement,
        &sched,
        &curve_cfg(wl.rounds),
    );

    stop.store(true, Ordering::Release);
    hammer.join().expect("hammer thread");
    let final_snapshot = std::fs::read_to_string(&path).expect("snapshot readable");
    match Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => unreachable!("hammer thread joined, no other handles"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    LoopRun {
        curve,
        adapt_rounds,
        swaps_landed,
        refit_steps_total,
        non_finite_states,
        hammer_served: served.load(Ordering::Relaxed),
        hammer_failed: failed.load(Ordering::Relaxed),
        final_snapshot,
    }
}

fn curve_json(curve: &[CurvePoint]) -> String {
    let points: Vec<String> = curve
        .iter()
        .map(|p| serde_json::to_string(p).expect("plain data serializes"))
        .collect();
    format!("[\n    {}\n  ]", points.join(",\n    "))
}

fn main() {
    let config = Config::from_process();
    let wl = or_exit(Workload::parse(&config));
    config.with_run_manifest("adapt_loop", || run(&config, &wl));
}

fn run(config: &Config, wl: &Workload) {
    eprintln!(
        "adapt_loop: {} rounds x {} samples, {} streams, {} refit steps, budget {:?}",
        wl.rounds, wl.samples, wl.streams, wl.refit_steps, wl.budget
    );

    let raw = benchmark_by_name("CBF", 0).expect("CBF generator");
    let split = Preprocess::paper_default()
        .apply(&raw)
        .shuffle_split(0.6, 0.2, 0);
    let test = Dataset::new(
        "cbf-subset",
        split.test.num_classes(),
        split.test.iter().take(wl.samples).cloned().collect(),
    );

    // A short nominal training pass gives the deployment input-sensitive
    // predictions — an untrained crossbar argmaxes the same class for every
    // window, which would leave the agreement metric blind to drift.
    let deploy_cfg = TrainConfig::builder(HIDDEN)
        .filter_order(FilterOrder::Second)
        .initial_lr(0.05)
        .max_epochs(120)
        .patience(20)
        .build();
    let deployed = train_with_runner(&split, &deploy_cfg, SEED, &config.runner).model;
    let deployed_json = persist::to_json(&deployed);
    let clean_engine = ServeModel::from_live(&deployed)
        .expect("deployment compiles")
        .into_shared_engine();
    let agreement = pseudo_labeled(&test, &clean_engine);

    // Frozen arm: the deployment never changes.
    let frozen_curve = drift_accuracy_curve(
        |_| Arc::clone(&clean_engine),
        &agreement,
        &schedule(wl.rounds),
        &curve_cfg(wl.rounds),
    );

    // Adapted arm, plus the worker-count parity sweep: the closed loop
    // must be bit-identical however many serve workers run underneath it.
    // A wall-clock refit budget intentionally trades that determinism for
    // latency, so parity is only checked without one.
    let adapted = run_adapted_loop(wl, &agreement, &deployed_json, 1);
    let (parity_checked, parity_ok) = if wl.budget.is_none() {
        let across = [2, 5].map(|w| run_adapted_loop(wl, &agreement, &deployed_json, w));
        (
            true,
            across
                .iter()
                .all(|r| r.curve == adapted.curve && r.final_snapshot == adapted.final_snapshot),
        )
    } else {
        (false, true)
    };

    let frozen_final = frozen_curve.last().expect("non-empty curve").accuracy;
    let adapted_final = adapted.curve.last().expect("non-empty curve").accuracy;
    let non_finite_logits: usize = frozen_curve
        .iter()
        .chain(adapted.curve.iter())
        .map(|p| p.non_finite_logits)
        .sum();

    let widths = [28usize, 14];
    print_row(&["metric", "value"].map(String::from), &widths);
    print_rule(&widths);
    let rows: [(&str, String); 10] = [
        (
            "accuracy round 0 (frozen)",
            format!("{:.3}", frozen_curve[0].accuracy),
        ),
        ("accuracy final (frozen)", format!("{frozen_final:.3}")),
        ("accuracy final (adapted)", format!("{adapted_final:.3}")),
        ("adaptation rounds", adapted.adapt_rounds.to_string()),
        ("hot swaps landed", adapted.swaps_landed.to_string()),
        ("refit steps total", adapted.refit_steps_total.to_string()),
        ("non-finite logits", non_finite_logits.to_string()),
        ("non-finite states", adapted.non_finite_states.to_string()),
        ("hammer requests served", adapted.hammer_served.to_string()),
        (
            "worker parity 1/2/5",
            if !parity_checked {
                "skipped".into()
            } else if parity_ok {
                "bitwise".into()
            } else {
                "DIVERGED".into()
            },
        ),
    ];
    for (k, v) in &rows {
        print_row(&[k.to_string(), v.clone()], &widths);
    }

    ptnc_telemetry::gauge("adapt.accuracy_final_frozen", frozen_final);
    ptnc_telemetry::gauge("adapt.accuracy_final_adapted", adapted_final);
    ptnc_telemetry::gauge("adapt.rounds", adapted.adapt_rounds as f64);
    ptnc_telemetry::gauge("adapt.swaps_landed", adapted.swaps_landed as f64);
    ptnc_telemetry::gauge("adapt.non_finite_states", adapted.non_finite_states as f64);

    let json_path = config.get("PNC_ADAPT_JSON").unwrap_or("BENCH_adapt.json");
    let json = format!(
        "{{\n  \"bench\": \"adapt_loop\",\n  \"rounds\": {},\n  \"samples\": {},\n  \"streams\": {},\n  \"refit_steps\": {},\n  \"budget_ms\": {},\n  \"frozen_curve\": {},\n  \"adapted_curve\": {},\n  \"accuracy_final_frozen\": {:.6},\n  \"accuracy_final_adapted\": {:.6},\n  \"adaptation_rounds\": {},\n  \"hot_swaps_landed\": {},\n  \"refit_steps_total\": {},\n  \"non_finite_logits\": {},\n  \"non_finite_states\": {},\n  \"hammer_served\": {},\n  \"hammer_failed\": {},\n  \"worker_parity_checked\": {},\n  \"worker_parity_ok\": {}\n}}\n",
        wl.rounds,
        wl.samples,
        wl.streams,
        wl.refit_steps,
        wl.budget.map_or(0, |d| d.as_millis()),
        curve_json(&frozen_curve),
        curve_json(&adapted.curve),
        frozen_final,
        adapted_final,
        adapted.adapt_rounds,
        adapted.swaps_landed,
        adapted.refit_steps_total,
        non_finite_logits,
        adapted.non_finite_states,
        adapted.hammer_served,
        adapted.hammer_failed,
        parity_checked,
        parity_ok,
    );
    std::fs::write(json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    eprintln!("wrote {json_path}");

    if config.flag("PNC_ADAPT_ENFORCE") {
        let mut gate_failed = false;
        if adapted_final <= frozen_final {
            eprintln!(
                "PNC_ADAPT_ENFORCE: adapted end-of-run accuracy {adapted_final:.3} does not \
                 beat frozen {frozen_final:.3} — failing"
            );
            gate_failed = true;
        }
        if non_finite_logits > 0 || adapted.non_finite_states > 0 {
            eprintln!(
                "PNC_ADAPT_ENFORCE: {} non-finite logits / {} non-finite states — failing",
                non_finite_logits, adapted.non_finite_states
            );
            gate_failed = true;
        }
        if adapted.adapt_rounds == 0 || adapted.swaps_landed != adapted.adapt_rounds {
            eprintln!(
                "PNC_ADAPT_ENFORCE: {}/{} adaptation swaps landed under load — failing",
                adapted.swaps_landed, adapted.adapt_rounds
            );
            gate_failed = true;
        }
        if adapted.hammer_served == 0 || adapted.hammer_failed > 0 {
            eprintln!(
                "PNC_ADAPT_ENFORCE: background traffic {}/{} served — failing",
                adapted.hammer_served,
                adapted.hammer_served + adapted.hammer_failed
            );
            gate_failed = true;
        }
        if parity_checked && !parity_ok {
            eprintln!("PNC_ADAPT_ENFORCE: loop diverged across worker counts — failing");
            gate_failed = true;
        }
        if gate_failed {
            std::process::exit(1);
        }
    }
}
