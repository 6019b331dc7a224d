//! The compiled-training contract: the `f64` kernel's forward with its
//! reverse sweep (`InferModel::loss_and_grad`, what `TrainPath::Compiled`
//! trains on) must give the fused tape's loss and gradients to rounding —
//! across filter orders, batch shapes and variation noise — and agree with
//! central finite differences. Its forward is the serving kernel, so the
//! loss is bitwise the cross-entropy of `perturbed().run_batch()`.
//!
//! The gradients are not bitwise the tape's: the kernel's `tanh` is within
//! 4 ulp of `std`'s, and the sweep sums over lanes and time in another
//! order. `TOL` bounds the difference per element, relative to the larger
//! magnitude.

use adapt_pnc::prelude::*;
use ptnc_infer::{InferModel, VariationDistribution, VariationSample};
use ptnc_tensor::{gradcheck, init, Tensor};

/// Relative per-element agreement required between compiled and tape.
const TOL: f64 = 1e-9;
const CLASSES: usize = 3;

fn wave_steps(t: usize, batch: usize, dim: usize) -> Vec<Tensor> {
    (0..t)
        .map(|k| {
            let data: Vec<f64> = (0..batch * dim)
                .map(|i| (0.31 * (k * batch * dim + i) as f64).sin() * 0.8)
                .collect();
            Tensor::from_vec(&[batch, dim], data)
        })
        .collect()
}

fn model(order: FilterOrder, seed: u64) -> PrintedModel {
    let mut rng = init::rng(seed);
    PrintedModel::new(2, 4, CLASSES, order, &Pdk::paper_default(), &mut rng)
}

fn labels(batch: usize) -> Vec<usize> {
    (0..batch).map(|b| (b + 1) % CLASSES).collect()
}

fn engine(m: &PrintedModel) -> InferModel {
    ServeModel::from_live(m).unwrap().into_engine()
}

/// The same variation instance on both paths: `sample_noise` and
/// `VariationSample::draw` consume one seeded generator identically.
fn noise_pair(m: &PrintedModel, seed: u64) -> (ModelNoise, VariationSample) {
    let cfg = VariationConfig::paper_default();
    let noise = m.sample_noise(&cfg, &mut init::rng(seed));
    let dist = VariationDistribution::from(&cfg);
    let sample = VariationSample::draw(&ServeModel::spec_of(m), &dist, &mut init::rng(seed));
    (noise, sample)
}

/// Compiled loss and per-parameter gradients.
fn compiled(
    m: &PrintedModel,
    steps: &[Tensor],
    labels: &[usize],
    sample: Option<&VariationSample>,
) -> (f64, Vec<Vec<f64>>) {
    let engine = engine(m);
    let flat = ServeModel::flatten_steps(steps).unwrap();
    let lens = engine.spec().param_lens();
    let mut grad = vec![0.0; lens.iter().sum()];
    let loss = engine
        .loss_and_grad(sample, &flat, labels.len(), labels, &mut grad)
        .unwrap();
    let mut rest = grad.as_slice();
    let grads = lens
        .iter()
        .map(|&n| {
            let (g, tail) = rest.split_at(n);
            rest = tail;
            g.to_vec()
        })
        .collect();
    (loss, grads)
}

/// Fused-tape loss and per-parameter gradients.
fn tape(
    m: &PrintedModel,
    steps: &[Tensor],
    labels: &[usize],
    noise: Option<&ModelNoise>,
) -> (f64, Vec<Vec<f64>>) {
    for p in m.parameters() {
        p.zero_grad();
    }
    let loss = ptnc_nn::cross_entropy(
        &m.forward_with_mode(steps, noise, ForwardMode::Fused),
        labels,
    );
    loss.backward();
    let grads = m
        .parameters()
        .iter()
        .map(|p| p.grad_opt().unwrap_or_else(|| vec![0.0; p.len()]))
        .collect();
    (loss.item(), grads)
}

fn assert_close(what: &str, a: f64, b: f64) {
    let err = (a - b).abs();
    assert!(
        err <= TOL * a.abs().max(b.abs()),
        "{what}: compiled {a:e} vs tape {b:e} (relative error {:e})",
        err / a.abs().max(b.abs())
    );
}

const ORDERS: [FilterOrder; 3] = [FilterOrder::First, FilterOrder::Second, FilterOrder::Third];

/// Compiled and fused-tape gradients agree per element — orders 1–3, batch
/// 1 and 3, nominal and under a variation sample.
#[test]
fn compiled_gradients_match_the_fused_tape() {
    for (oi, order) in ORDERS.into_iter().enumerate() {
        for batch in [1usize, 3] {
            let m = model(order, 10 + oi as u64);
            let steps = wave_steps(9, batch, 2);
            let labels = labels(batch);
            let (noise, sample) = noise_pair(&m, 99 + oi as u64);
            for noisy in [false, true] {
                let (lc, gc) = compiled(&m, &steps, &labels, noisy.then_some(&sample));
                let (lt, gt) = tape(&m, &steps, &labels, noisy.then_some(&noise));
                let case = format!("{order:?}, batch {batch}, noisy {noisy}");
                assert_close(&format!("{case}: loss"), lc, lt);
                for (pi, (a, b)) in gc.iter().zip(&gt).enumerate() {
                    assert_eq!(a.len(), b.len(), "{case}: parameter {pi} length");
                    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
                        assert_close(&format!("{case}: parameter {pi} element {i}"), x, y);
                    }
                }
            }
        }
    }
}

/// The compiled loss as a tape scalar whose backward deposits the compiled
/// gradient — the surrogate `Σ⟨θ, g⟩ − detach + loss` training injects.
fn surrogate(m: &PrintedModel, steps: &[Tensor], sample: Option<&VariationSample>) -> Tensor {
    let labels = labels(steps[0].dims()[0]);
    let (loss, grads) = compiled(m, steps, &labels, sample);
    let mut s = Tensor::scalar(0.0);
    for (p, g) in m.parameters().iter().zip(grads) {
        s = s.add(&p.mul(&Tensor::from_vec(p.dims(), g)).sum_all());
    }
    s.sub(&s.detach()).add_scalar(loss)
}

/// The reverse sweep agrees with central finite differences of the
/// compiled loss through the full model, orders 1–3.
#[test]
fn compiled_gradients_match_finite_differences() {
    for (oi, order) in ORDERS.into_iter().enumerate() {
        let m = model(order, 20 + oi as u64);
        let steps = wave_steps(6, 2, 2);
        gradcheck::check(|| surrogate(&m, &steps, None), &m.parameters(), 1e-6);
    }
}

/// Finite differences also hold under a variation sample, where every
/// gradient picks up its component's ε.
#[test]
fn compiled_gradients_match_finite_differences_under_noise() {
    let m = model(FilterOrder::Second, 31);
    let steps = wave_steps(5, 3, 2);
    let (_, sample) = noise_pair(&m, 32);
    gradcheck::check(
        || surrogate(&m, &steps, Some(&sample)),
        &m.parameters(),
        1e-6,
    );
}

/// The compiled forward is the serving kernel: its loss is bitwise the
/// cross-entropy of `perturbed(sample).run_batch()` (and of the nominal
/// `run_batch()`), for every order.
#[test]
fn compiled_forward_is_bitwise_the_serving_kernel() {
    for (oi, order) in ORDERS.into_iter().enumerate() {
        let m = model(order, 40 + oi as u64);
        let batch = 3;
        let steps = wave_steps(12, batch, 2);
        let flat = ServeModel::flatten_steps(&steps).unwrap();
        let labels = labels(batch);
        let engine = engine(&m);
        let (_, sample) = noise_pair(&m, 50 + oi as u64);
        let perturbed = engine.perturbed(&sample).unwrap();
        for (served, s) in [(&engine, None), (&perturbed, Some(&sample))] {
            let logits = served.run_batch(&flat, batch).unwrap();
            let want = ptnc_infer::cross_entropy(&logits, CLASSES, &labels);
            let (got, _) = compiled(&m, &steps, &labels, s);
            assert_eq!(got.to_bits(), want.to_bits(), "{order:?}: loss diverged");
        }
    }
}

/// Malformed requests are typed errors, and nothing is written.
#[test]
fn malformed_requests_are_typed_errors() {
    let m = model(FilterOrder::Second, 60);
    let engine = engine(&m);
    let flat = ServeModel::flatten_steps(&wave_steps(4, 2, 2)).unwrap();
    let n: usize = engine.spec().param_lens().iter().sum();
    let mut grad = vec![7.0; n];
    let bad = [
        engine.loss_and_grad(None, &flat, 2, &[0], &mut grad),
        engine.loss_and_grad(None, &flat, 2, &[0, CLASSES], &mut grad),
        engine.loss_and_grad(None, &flat, 3, &[0, 1, 2], &mut grad),
        engine.loss_and_grad(None, &flat, 2, &[0, 1], &mut grad[1..]),
    ];
    for r in bad {
        assert!(
            matches!(r, Err(ptnc_infer::InferError::ShapeMismatch { .. })),
            "{r:?}"
        );
    }
    assert!(grad.iter().all(|&g| g == 7.0), "gradient written on error");
}
