//! Cross-precision guarantees of the multi-precision inference kernels:
//! the f32 and i32 fixed-point backends track the f64 reference closely
//! enough to preserve classifications, never emit non-finite or absurd
//! logits even under the full sensor-fault grid (guarded path), and carry
//! session state across the f64 wire format without drift.

use adapt_pnc::faultsim::{FaultKind, FaultSchedule};
use adapt_pnc::infer::{GuardConfig, InferModel, InferSpec, InputGuard, Precision, QFormat};
use adapt_pnc::prelude::*;
use adapt_pnc::serve::ServeModel;
use ptnc_tensor::{init, Tensor};

const ORDERS: [FilterOrder; 3] = [FilterOrder::First, FilterOrder::Second, FilterOrder::Third];
const BATCH: usize = 4;
const DIM: usize = 2;

fn model_with_order(order: FilterOrder, seed: u64) -> PrintedModel {
    PrintedModel::new(
        DIM,
        5,
        3,
        order,
        &Pdk::paper_default(),
        &mut init::rng(seed),
    )
}

fn engine_with(model: &PrintedModel, precision: Precision) -> adapt_pnc::infer::InferModel {
    ServeModel::builder()
        .precision(precision)
        .from_live(model)
        .unwrap()
        .into_engine()
}

/// A deterministic time-varying sequence of `[batch, dim]` steps.
fn seeded_steps(t: usize) -> Vec<Tensor> {
    (0..t)
        .map(|k| {
            let data: Vec<f64> = (0..BATCH * DIM)
                .map(|i| ((k * BATCH * DIM + i) as f64 * 0.37).sin())
                .collect();
            Tensor::from_vec(&[BATCH, DIM], data)
        })
        .collect()
}

fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

/// Max |Δlogit| and whether every batch lane argmax-agrees between two
/// logit matrices.
fn compare(classes: usize, a: &[f64], b: &[f64]) -> (f64, bool) {
    let max_err = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    let agree = (0..BATCH).all(|lane| {
        let row = lane * classes..(lane + 1) * classes;
        argmax(&a[row.clone()]) == argmax(&b[row])
    });
    (max_err, agree)
}

/// Parity pin: across all three filter orders, the f32 backend stays
/// within 1e-4 of the f64 logits and the i32 backend at the default
/// Q-format within 1e-2 — both preserving every argmax.
#[test]
fn quantized_backends_pin_divergence_and_argmax_against_f64() {
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 200 + k as u64);
        let flat = ServeModel::flatten_steps(&seeded_steps(30)).unwrap();
        let reference = engine_with(&model, Precision::F64)
            .run_batch(&flat, BATCH)
            .unwrap();
        let classes = reference.len() / BATCH;

        let f32_logits = engine_with(&model, Precision::F32)
            .run_batch(&flat, BATCH)
            .unwrap();
        let (err, agree) = compare(classes, &f32_logits, &reference);
        assert!(err < 1e-4, "{order:?}: f32 diverged by {err}");
        assert!(agree, "{order:?}: f32 flipped an argmax");

        let i32_logits = engine_with(&model, Precision::I32(QFormat::DEFAULT))
            .run_batch(&flat, BATCH)
            .unwrap();
        let (err, agree) = compare(classes, &i32_logits, &reference);
        assert!(err < 1e-2, "{order:?}: i32 diverged by {err}");
        assert!(agree, "{order:?}: i32 flipped an argmax");
    }
}

/// A schedule carrying every fault kind at the given severity.
fn full_schedule(seed: u64, severity: f64) -> FaultSchedule {
    FaultKind::ALL
        .into_iter()
        .fold(FaultSchedule::new(seed), |s, kind| {
            s.with_fault(kind, severity)
        })
}

/// Property: under the full fault grid — every fault kind at full
/// severity, plus hand-placed NaN/Inf bursts and out-of-range spikes —
/// the guarded path on the f32 and i32 backends returns only finite,
/// sanely-bounded logits, for all three filter orders.
#[test]
fn quantized_backends_stay_finite_under_full_fault_grid() {
    let precisions = [
        Precision::F32,
        Precision::I32(QFormat::DEFAULT),
        Precision::I32(QFormat::new(12).unwrap()),
    ];
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 300 + k as u64);
        let flat = ServeModel::flatten_steps(&seeded_steps(40)).unwrap();
        for schedule_seed in 0..4u64 {
            let mut injected = flat.clone();
            full_schedule(schedule_seed, 1.0)
                .injector(0, BATCH * DIM)
                .corrupt_sequence(&mut injected);
            for (i, v) in injected.iter_mut().enumerate() {
                match (i + schedule_seed as usize) % 11 {
                    0 => *v = f64::INFINITY,
                    3 => *v = f64::NEG_INFINITY,
                    5 => *v = f64::NAN,
                    7 => *v = 1e12,
                    _ => {}
                }
            }
            for precision in precisions {
                let engine = engine_with(&model, precision);
                let mut guard = InputGuard::new(GuardConfig::default_policy(), BATCH, DIM).unwrap();
                let logits = engine
                    .run_batch_guarded(&injected, BATCH, &mut guard)
                    .unwrap();
                assert!(
                    logits.iter().all(|v| v.is_finite() && v.abs() < 1e6),
                    "{order:?} {precision} seed {schedule_seed}: bad logits {logits:?}"
                );
                assert!(guard.stats().repaired > 0, "schedule injected nothing");
            }
        }
    }
}

/// Session-state portability: exporting a quantized backend's lane state
/// through the f64 wire format and importing it into a fresh scratch
/// resumes the stream where it left off, for all orders and backends.
#[test]
fn quantized_lane_state_round_trips_through_wire_format() {
    let precisions = [
        Precision::F64,
        Precision::F32,
        Precision::I32(QFormat::DEFAULT),
    ];
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 400 + k as u64);
        let flat = ServeModel::flatten_steps(&seeded_steps(24)).unwrap();
        let (head, tail) = flat.split_at(flat.len() / 2);
        for precision in precisions {
            let engine = engine_with(&model, precision);
            let classes = engine.spec().classes;
            let mut out = vec![0.0; BATCH * classes];

            // One-shot reference over the whole window.
            let mut scratch = engine.make_scratch(BATCH).unwrap();
            engine
                .run_batch_into(&flat, BATCH, &mut scratch, &mut out)
                .unwrap();
            let reference = out.clone();

            // Head on one scratch, state exported lane by lane through the
            // f64 wire format into a fresh scratch, tail resumed there.
            let mut first = engine.make_scratch(BATCH).unwrap();
            engine
                .run_batch_into(head, BATCH, &mut first, &mut out)
                .unwrap();
            let mut resumed = engine.make_scratch(BATCH).unwrap();
            let mut wire = vec![0.0; first.lane_state_len()];
            for lane in 0..BATCH {
                first.export_lane_state(lane, &mut wire).unwrap();
                assert!(
                    wire.iter().all(|v| v.is_finite()),
                    "{order:?} {precision}: non-finite wire state"
                );
                resumed.import_lane_state(lane, &wire).unwrap();
            }
            engine
                .run_chunk_into(tail, BATCH, &mut resumed, &mut out)
                .unwrap();

            let (err, _) = compare(classes, &out, &reference);
            let tol = match precision {
                Precision::I32(_) => 1e-2,
                _ => 1e-6,
            };
            assert!(
                err < tol,
                "{order:?} {precision}: resumed logits diverged by {err}"
            );
        }
    }

    // The PDK's small-RC corner (R = 50 Ω, C = 100 nF, Δt = 0.01, μ = 1):
    // stage decays near zero and alternating-sign stage voltages, as
    // independent per-stage V₀ draws produce. Importing then exporting a
    // lane state must give the state back within one quantum.
    for stages in [2, 3] {
        let spec = InferSpec {
            input_dim: DIM,
            hidden: 5,
            classes: 3,
            stages,
            mu_nominal: 1.0,
            dt: 0.01,
            logit_scale: 1.0,
        };
        let per_layer = spec.params_per_layer();
        let params: Vec<Vec<f64>> = spec
            .param_lens()
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                // θ_w, θ_b, θ_d, then (log R, log C) per stage, then η.
                let slot = k % per_layer;
                let v = if !(3..3 + 2 * stages).contains(&slot) {
                    0.3
                } else if (slot - 3).is_multiple_of(2) {
                    50f64.ln()
                } else {
                    100e-9f64.ln()
                };
                vec![v; n]
            })
            .collect();
        for precision in [
            Precision::F64,
            Precision::F32,
            Precision::I32(QFormat::DEFAULT),
            Precision::I32(QFormat::new(26).unwrap()),
        ] {
            let engine = InferModel::build_with_precision(spec, &params, precision).unwrap();
            let mut scratch = engine.make_scratch(1).unwrap();
            let widths = [spec.hidden, spec.classes];
            let state: Vec<f64> = widths
                .iter()
                .flat_map(|&w| (0..stages).flat_map(move |s| std::iter::repeat_n(s, w)))
                .map(|s| if s.is_multiple_of(2) { 0.05 } else { -0.05 })
                .collect();
            scratch.import_lane_state(0, &state).unwrap();
            let mut back = vec![0.0; state.len()];
            scratch.export_lane_state(0, &mut back).unwrap();
            let tol = match precision {
                Precision::I32(q) => 0.5f64.powi(q.frac_bits() as i32),
                _ => 1e-9,
            };
            let err = state
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                err <= tol,
                "small-RC order {stages} {precision}: wire round trip moved state by {err}"
            );
        }
    }
}
