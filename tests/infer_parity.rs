//! Parity between the design-time autograd forward pass and the compiled
//! graph-free inference runtime (`ptnc-infer`): logits must agree within
//! 1e-9 for every filter order, batched and streaming, at nominal
//! conditions and under seeded variation samples.

use adapt_pnc::infer::VariationSample;
use adapt_pnc::prelude::*;
use adapt_pnc::serve;
use ptnc_tensor::{init, Tensor};

const ORDERS: [FilterOrder; 3] = [FilterOrder::First, FilterOrder::Second, FilterOrder::Third];
const PARITY: f64 = 1e-9;

fn model_with_order(order: FilterOrder, seed: u64) -> PrintedModel {
    PrintedModel::new(2, 5, 3, order, &Pdk::paper_default(), &mut init::rng(seed))
}

/// A deterministic time-varying sequence of `[batch, dim]` steps.
fn seeded_steps(t: usize, batch: usize, dim: usize) -> Vec<Tensor> {
    (0..t)
        .map(|k| {
            let data: Vec<f64> = (0..batch * dim)
                .map(|i| ((k * batch * dim + i) as f64 * 0.37).sin())
                .collect();
            Tensor::from_vec(&[batch, dim], data)
        })
        .collect()
}

fn assert_close(autograd: &[f64], graphfree: &[f64], what: &str) {
    assert_eq!(autograd.len(), graphfree.len(), "{what}: length mismatch");
    for (i, (a, g)) in autograd.iter().zip(graphfree).enumerate() {
        assert!(
            (a - g).abs() < PARITY,
            "{what}: logit {i} diverged: autograd {a} vs graph-free {g}"
        );
    }
}

#[test]
fn batched_parity_all_orders() {
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 20 + k as u64);
        let steps = seeded_steps(14, 4, 2);
        let engine = serve::ServeModel::from_live(&model).unwrap().into_engine();
        let expected = model.forward_nominal(&steps).to_vec();
        let flat = serve::ServeModel::flatten_steps(&steps).unwrap();
        let got = engine.run_batch(&flat, 4).unwrap();
        assert_close(&expected, &got, &format!("{order:?} batched"));
    }
}

#[test]
fn streaming_parity_all_orders() {
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 30 + k as u64);
        let steps = seeded_steps(11, 3, 2);
        let engine = serve::ServeModel::from_live(&model).unwrap().into_engine();
        let expected = model.forward_nominal(&steps).to_vec();
        let mut stream = engine.stream(3).unwrap();
        let mut last = Vec::new();
        for s in &steps {
            last = stream.step(&s.to_vec()).unwrap().to_vec();
        }
        assert_close(&expected, &last, &format!("{order:?} streaming"));
    }
}

#[test]
fn streaming_equals_batched_exactly() {
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 40 + k as u64);
        let steps = seeded_steps(9, 2, 2);
        let engine = serve::ServeModel::from_live(&model).unwrap().into_engine();
        let flat = serve::ServeModel::flatten_steps(&steps).unwrap();
        let batched = engine.run_batch(&flat, 2).unwrap();
        let mut stream = engine.stream(2).unwrap();
        let mut last = Vec::new();
        for s in &steps {
            last = stream.step(&s.to_vec()).unwrap().to_vec();
        }
        // Same recurrence, same arithmetic: bitwise equality, not just 1e-9.
        assert_eq!(batched, last, "{order:?}: stream must equal batch bitwise");
    }
}

#[test]
fn perturbed_parity_all_orders() {
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 50 + k as u64);
        let steps = seeded_steps(12, 3, 2);
        let engine = serve::ServeModel::from_live(&model).unwrap().into_engine();
        let flat = serve::ServeModel::flatten_steps(&steps).unwrap();
        let dist = (&VariationConfig::paper_default()).into();
        for trial in 0..3u64 {
            // Identical RNG stream on both paths → identical noise draw.
            let mut rng_a = rng_for(77, streams::EVAL_TRIAL, trial);
            let noise = model.sample_noise(&VariationConfig::paper_default(), &mut rng_a);
            let mut rng_b = rng_for(77, streams::EVAL_TRIAL, trial);
            let sample = VariationSample::draw(engine.spec(), &dist, &mut rng_b);

            let expected = model.forward(&steps, Some(&noise)).to_vec();
            let got = engine
                .perturbed(&sample)
                .unwrap()
                .run_batch(&flat, 3)
                .unwrap();
            assert_close(
                &expected,
                &got,
                &format!("{order:?} perturbed trial {trial}"),
            );
        }
    }
}

#[test]
fn compiled_snapshot_serves_identically() {
    let model = model_with_order(FilterOrder::Second, 60);
    let steps = seeded_steps(10, 2, 2);
    let flat = serve::ServeModel::flatten_steps(&steps).unwrap();
    let live = serve::ServeModel::from_live(&model).unwrap().into_engine();
    let json = adapt_pnc::persist::to_json(&model);
    let loaded = serve::ServeModel::from_json(&json).unwrap().into_engine();
    assert_eq!(
        live.run_batch(&flat, 2).unwrap(),
        loaded.run_batch(&flat, 2).unwrap(),
        "snapshot round trip must not change served logits"
    );
}

#[test]
fn graphfree_evaluation_invariant_across_thread_counts() {
    let model = model_with_order(FilterOrder::Second, 70);
    let raw = benchmark_by_name("CBF", 0).unwrap();
    let ds = Preprocess::paper_default()
        .apply(&raw)
        .shuffle_split(0.6, 0.2, 0)
        .test;
    let cond = EvalCondition::Variation {
        config: VariationConfig::paper_default(),
        trials: 6,
    };
    let serial = evaluate_with_runner(&model, &ds, &cond, 13, &ParallelRunner::serial());
    for threads in [2, 4] {
        let runner = ParallelRunner::serial().with_threads(threads);
        let parallel = evaluate_with_runner(&model, &ds, &cond, 13, &runner);
        assert_eq!(
            serial, parallel,
            "graph-free MC evaluation must be bit-identical at {threads} threads"
        );
    }
}

/// FNV-1a over the IEEE-754 bit patterns of `values`.
fn bits_digest(digest: &mut u64, values: &[f64]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *digest ^= byte as u64;
            *digest = digest.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Bit-stability pin for the f64 reference kernel: the exact bit patterns
/// of the one-shot logits, of a chunked `run_chunk_into` (logits and
/// exported lane states after every chunk) and of a perturbed instance,
/// for filter orders 1–3, hashed per order. Any change to the f64
/// arithmetic (accumulation order, division by `G`, `tanh`) moves them,
/// even one the 1e-9 parity tests above accept; a change that does so on
/// purpose re-captures them. The kernel's `tanh` is its own branch-free
/// `expm1` form, not libm's; the digests still assume IEEE-754 `f64` and
/// the platform libm's `exp` and `powf`, which compiling the model uses
/// (glibc on x86-64 Linux).
#[test]
fn f64_logits_and_lane_states_are_bit_stable() {
    const GOLDEN: [u64; 3] = [0x17ee7c08d2065482, 0x9dfb71836049082a, 0xd1d507ebabfcf904];
    const BATCH: usize = 3;
    const CHUNK: usize = 4;
    let mut digests = [0u64; 3];
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 90 + k as u64);
        let steps = seeded_steps(12, BATCH, 2);
        let engine = serve::ServeModel::from_live(&model).unwrap().into_engine();
        let flat = serve::ServeModel::flatten_steps(&steps).unwrap();
        let classes = engine.spec().classes;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;

        bits_digest(&mut digest, &engine.run_batch(&flat, BATCH).unwrap());

        let mut scratch = engine.make_scratch(BATCH).unwrap();
        let mut state = vec![0.0; engine.lane_state_len()];
        engine.reset_lane_state(&mut state).unwrap();
        for lane in 0..BATCH {
            scratch.import_lane_state(lane, &state).unwrap();
        }
        let mut out = vec![0.0; BATCH * classes];
        for chunk in flat.chunks(CHUNK * BATCH * 2) {
            engine
                .run_chunk_into(chunk, BATCH, &mut scratch, &mut out)
                .unwrap();
            bits_digest(&mut digest, &out);
            for lane in 0..BATCH {
                scratch.export_lane_state(lane, &mut state).unwrap();
                bits_digest(&mut digest, &state);
            }
        }

        let dist = (&VariationConfig::paper_default()).into();
        let mut rng = rng_for(91, streams::EVAL_TRIAL, k as u64);
        let sample = VariationSample::draw(engine.spec(), &dist, &mut rng);
        let perturbed = engine.perturbed(&sample).unwrap();
        let mut scratch = perturbed.make_scratch(BATCH).unwrap();
        perturbed
            .run_batch_into(&flat, BATCH, &mut scratch, &mut out)
            .unwrap();
        bits_digest(&mut digest, &out);
        for lane in 0..BATCH {
            scratch.export_lane_state(lane, &mut state).unwrap();
            bits_digest(&mut digest, &state);
        }
        perturbed.reset_lane_state(&mut state).unwrap();
        bits_digest(&mut digest, &state);
        digests[k] = digest;
    }
    assert_eq!(
        digests, GOLDEN,
        "f64 kernel bits moved: got {digests:#018x?}"
    );
}
