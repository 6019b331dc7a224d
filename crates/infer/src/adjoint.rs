//! Training on the compiled `f64` kernel: the mean cross-entropy of a
//! batch and its gradient with respect to every parameter, from a forward
//! pass that stashes what the reverse sweep needs. No autograd tape is
//! involved.
//!
//! The forward is the serving kernel itself ([`Kernel::run_observed`] over
//! the unchanged per-layer step), so its logits are bitwise those of
//! `perturbed(sample).run_batch(..)`. After every timestep it copies the
//! `[layer][stage][filter][lane]` stage voltages and the hidden
//! activations. The reverse sweep then walks time backwards. At each step
//! the class layer goes first, since its crossbar hands the hidden layer
//! its adjoint:
//!
//! * **ptanh** `h = η₁ + η₂·tanh((v − η₃)·η₄)`. The `tanh` is recomputed
//!   from the stashed voltage by the forward's own `tanh_f64`.
//! * **cascade** `v ← a·v + b·x` per section: `λ_{t−1} += a·λ_t`,
//!   `∂a += λ_t·v_{t−1}` and `∂b += λ_t·x_t`. At the end these chain into
//!   `log R` and `log C` through `a = rc/(μ·rc + Δt)` and
//!   `b = Δt/(μ·rc + Δt)`.
//! * **crossbar** `y = (Σθ_w·x + θ_b)/G` with
//!   `G = Σ|θ_w| + |θ_b| + |θ_d| + 1e-12`. The output `y` is recomputed
//!   with the forward's arithmetic.
//!
//! Every effective component is its nominal value times its variation ε,
//! so each gradient finally picks up its ε. Parameter sums accumulate per
//! lane across time and reduce over the lanes once at the end, so every
//! inner loop runs over contiguous lanes. That order differs from the
//! tape's per-step sums, and the kernel's `tanh` is not `std`'s, so the
//! gradients agree with the fused tape to rounding, not bitwise.

use crate::kernel::{Kernel, Layer, LayerParams};
use crate::model::InferSpec;
use crate::precision::{tanh_f64, Arith, F64};
use crate::variation::{LayerVariation, VariationSample};

/// The mean cross-entropy of `logits` (`[lane][class]`) against `labels`,
/// computed as the design-time loss does: a max-shifted log-softmax per
/// row, the label entries summed in lane order, times `−1/batch`. When
/// `seed` is given it receives `∂loss/∂logit` in `[class][lane]` order.
pub(crate) fn cross_entropy(
    logits: &[f64],
    classes: usize,
    labels: &[usize],
    mut seed: Option<&mut [f64]>,
) -> f64 {
    let batch = labels.len();
    let inv = -1.0 / batch as f64;
    let mut total = 0.0;
    for (lane, (row, &label)) in logits.chunks_exact(classes).zip(labels).enumerate() {
        let mx = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let ln_sum = row.iter().map(|&v| (v - mx).exp()).sum::<f64>().ln();
        total += (row[label] - mx) - ln_sum;
        if let Some(seed) = seed.as_deref_mut() {
            // The tape's log-softmax backward: g − softmax·Σg, with g the
            // one-hot row scaled by −1/batch.
            let g = |j: usize| if j == label { inv } else { inv * 0.0 };
            let gsum: f64 = (0..classes).map(g).sum();
            for (j, &v) in row.iter().enumerate() {
                seed[j * batch + lane] = g(j) - ((v - mx) - ln_sum).exp() * gsum;
            }
        }
    }
    total * inv
}

/// Mean cross-entropy and its gradient, in `PrintedModel::parameters`
/// order, of the `f64` kernel compiled from `raw` at nominal conditions
/// or under `sample`. Shapes must already be validated.
pub(crate) fn loss_and_grad(
    spec: &InferSpec,
    raw: &[LayerParams; 2],
    sample: Option<&VariationSample>,
    steps: &[f64],
    batch: usize,
    labels: &[usize],
    grad: &mut [f64],
) -> f64 {
    let kernel = Kernel::compile(F64, spec, raw, sample);
    let mut lanes = kernel.lanes(batch);
    let states = lanes.state_len() * batch;
    let per_step = states + spec.hidden * batch;
    let t_len = steps.len() / (batch * spec.input_dim);

    // Slot 0 holds the initial voltages, slot t + 1 what step t left.
    let mut stash = vec![0.0; (t_len + 1) * per_step];
    kernel.reset_states(&mut stash[..states], batch);
    let mut logits = vec![0.0; batch * spec.classes];
    let mut t = 0;
    kernel.run_observed(&mut lanes, true, steps, Some(&mut logits), |v, h| {
        t += 1;
        let (sv, sh) = stash[t * per_step..(t + 1) * per_step].split_at_mut(states);
        sv.copy_from_slice(v);
        sh.copy_from_slice(h);
    });

    let mut seed = vec![0.0; spec.classes * batch];
    let loss = cross_entropy(&logits, spec.classes, labels, Some(&mut seed));
    for s in &mut seed {
        *s *= spec.logit_scale;
    }

    let [l0, l1] = &kernel.layers;
    let (dim, hidden) = (spec.input_dim, spec.hidden);
    let mut sweep0 = Sweep::new(dim, hidden, spec.stages, batch);
    let mut sweep1 = Sweep::new(hidden, spec.classes, spec.stages, batch);
    let mut lam_hidden = vec![0.0; hidden * batch];
    let mut x0 = vec![0.0; dim * batch];
    let split = l0.v0.len() * batch;
    for t in (0..t_len).rev() {
        let now = &stash[(t + 1) * per_step..(t + 2) * per_step];
        let prev = &stash[t * per_step..(t + 1) * per_step];
        let last = (t + 1 == t_len).then_some(&seed[..]);
        sweep1.step(
            l1,
            &now[states..],
            (&now[split..states], &prev[split..states]),
            last,
            Some(&mut lam_hidden),
        );
        let step = &steps[t * batch * dim..(t + 1) * batch * dim];
        for (i, row) in x0.chunks_exact_mut(batch).enumerate() {
            for (o, lane_in) in row.iter_mut().zip(step.chunks_exact(dim)) {
                *o = lane_in[i];
            }
        }
        sweep0.step(
            l0,
            &x0,
            (&now[..split], &prev[..split]),
            Some(&lam_hidden),
            None,
        );
    }

    let (g0, g1) = grad.split_at_mut(spec.param_lens()[..spec.params_per_layer()].iter().sum());
    let noise = |l: usize| sample.map(|s| &s.layers[l]);
    sweep0.finish(l0, &raw[0], spec, noise(0), g0);
    sweep1.finish(l1, &raw[1], spec, noise(1), g1);
    loss
}

/// The adjoint state and per-lane gradient accumulators of one layer.
/// Every buffer is `[row][lane]`.
struct Sweep {
    lanes: usize,
    fan_in: usize,
    fan_out: usize,
    stages: usize,
    /// λ per section, `[stage][filter]`: holds λ_{t+1} until step `t`
    /// overwrites it with λ_t.
    lam: Vec<f64>,
    /// `tanh` of one filter's lanes at the current step.
    th: Vec<f64>,
    /// The crossbar output at the current step, `[filter]`.
    y: Vec<f64>,
    /// The crossbar accumulator's adjoint `λ_y/G`, `[filter]`.
    dacc: Vec<f64>,
    /// `∂θ_w` through the accumulator, `[fan_in × fan_out]`.
    w: Vec<f64>,
    /// `∂θ_b` through the numerator, `[filter]`.
    b: Vec<f64>,
    /// `∂G`, `[filter]`.
    g: Vec<f64>,
    /// `∂a` of the sections, `[stage][filter]`.
    a: Vec<f64>,
    /// `∂b` of the sections, `[stage][filter]`.
    bc: Vec<f64>,
    /// `∂η₁..∂η₄`, `[filter][k]`.
    eta: Vec<f64>,
}

impl Sweep {
    fn new(fan_in: usize, fan_out: usize, stages: usize, lanes: usize) -> Self {
        let rows = |n: usize| vec![0.0; n * lanes];
        Sweep {
            lanes,
            fan_in,
            fan_out,
            stages,
            lam: rows(stages * fan_out),
            th: rows(1),
            y: rows(fan_out),
            dacc: rows(fan_out),
            w: rows(fan_in * fan_out),
            b: rows(fan_out),
            g: rows(fan_out),
            a: rows(stages * fan_out),
            bc: rows(stages * fan_out),
            eta: rows(4 * fan_out),
        }
    }

    /// One timestep backwards. `x` is the layer's `[fan_in][lane]` input
    /// at this step, `v` its stage voltages after this step and after the
    /// previous one, `lam_h` the adjoint of its activation (none where the
    /// activation is not read), and `lam_x`, if given, receives the
    /// adjoint of `x`.
    fn step(
        &mut self,
        layer: &Layer<F64>,
        x: &[f64],
        (v_now, v_prev): (&[f64], &[f64]),
        lam_h: Option<&[f64]>,
        lam_x: Option<&mut [f64]>,
    ) {
        let (n, fo) = (self.lanes, self.fan_out);
        let width = fo * n;

        // λ_t per section, last stage first: the decayed λ_{t+1} plus what
        // the stage drives (the ptanh, or the next section's input).
        for s in (0..self.stages).rev() {
            let (done, above) = self.lam.split_at_mut((s + 1) * width);
            let lam_s = &mut done[s * width..];
            let a_s = &layer.a[s * fo..(s + 1) * fo];
            if s + 1 < self.stages {
                let b_up = &layer.bc[(s + 1) * fo..(s + 2) * fo];
                let rows = lam_s.chunks_exact_mut(n).zip(above.chunks_exact(n));
                for ((row, up), (&a, &b)) in rows.zip(a_s.iter().zip(b_up)) {
                    for (l, &u) in row.iter_mut().zip(up) {
                        *l = a * *l + b * u;
                    }
                }
            } else if let Some(lam_h) = lam_h {
                let v_last = &v_now[s * width..(s + 1) * width];
                let rows = lam_s
                    .chunks_exact_mut(n)
                    .zip(v_last.chunks_exact(n))
                    .zip(lam_h.chunks_exact(n))
                    .zip(self.eta.chunks_exact_mut(4 * n));
                for ((((row, v), lh), ge), (&a, &eta)) in rows.zip(a_s.iter().zip(&layer.eta)) {
                    let (g1, rest) = ge.split_at_mut(n);
                    let (g2, rest) = rest.split_at_mut(n);
                    let (g3, g4) = rest.split_at_mut(n);
                    ptanh_back((a, eta), (v, lh), row, &mut self.th, [g1, g2, g3, g4]);
                }
            } else {
                for (row, &a) in lam_s.chunks_exact_mut(n).zip(a_s) {
                    for l in row {
                        *l *= a;
                    }
                }
            }
        }

        // The crossbar output, as `Layer::step` computed it.
        for (j, y_row) in self.y.chunks_exact_mut(n).enumerate() {
            for (i, x_row) in x.chunks_exact(n).enumerate() {
                let wv = layer.w[i * fo + j];
                for (y, &xv) in y_row.iter_mut().zip(x_row) {
                    *y = F64.mac(if i == 0 { 0.0 } else { *y }, wv, xv);
                }
            }
            let (bj, gj) = (layer.b[j], layer.g[j]);
            for y in y_row {
                *y = F64.crossbar(*y, bj, gj);
            }
        }

        // Section coefficients: ∂a += λ_t·v_{t−1}, ∂b += λ_t·(input at t).
        for s in 0..self.stages {
            let rows = s * width..(s + 1) * width;
            let input = if s == 0 {
                &self.y[..]
            } else {
                &v_now[(s - 1) * width..s * width]
            };
            let acc = self.a[rows.clone()]
                .iter_mut()
                .zip(&mut self.bc[rows.clone()]);
            let terms = self.lam[rows.clone()].iter().zip(&v_prev[rows]).zip(input);
            for ((ga, gb), ((&l, &p), &xv)) in acc.zip(terms) {
                *ga += l * p;
                *gb += l * xv;
            }
        }

        // Crossbar: λ_y = b₀·λ₀, then through (acc + θ_b)/G.
        for j in 0..fo {
            let rows = j * n..(j + 1) * n;
            let (b0, gj) = (layer.bc[j], layer.g[j]);
            let out = self.dacc[rows.clone()]
                .iter_mut()
                .zip(&mut self.b[rows.clone()])
                .zip(&mut self.g[rows.clone()]);
            let terms = self.lam[rows.clone()].iter().zip(&self.y[rows]);
            for (((d, gb), gg), (&l, &y)) in out.zip(terms) {
                *d = l * b0 / gj;
                *gb += *d;
                *gg -= *d * y;
            }
        }
        for (i, x_row) in x.chunks_exact(n).enumerate() {
            let gw = self.w[i * width..(i + 1) * width].chunks_exact_mut(n);
            for (gw_row, d_row) in gw.zip(self.dacc.chunks_exact(n)) {
                for ((g, &d), &xv) in gw_row.iter_mut().zip(d_row).zip(x_row) {
                    *g += d * xv;
                }
            }
        }
        if let Some(lam_x) = lam_x {
            for (i, lx) in lam_x.chunks_exact_mut(n).enumerate() {
                for (j, d_row) in self.dacc.chunks_exact(n).enumerate() {
                    let wv = layer.w[i * fo + j];
                    for (l, &d) in lx.iter_mut().zip(d_row) {
                        *l = if j == 0 { 0.0 } else { *l } + wv * d;
                    }
                }
            }
        }
    }

    /// Reduces the accumulators over the lanes and chains them from the
    /// effective components into this layer's parameters, written to `out`
    /// in `PrintedModel::parameters` order.
    fn finish(
        &self,
        layer: &Layer<F64>,
        p: &LayerParams,
        spec: &InferSpec,
        noise: Option<&LayerVariation>,
        out: &mut [f64],
    ) {
        let (n, fo) = (self.lanes, self.fan_out);
        let sum = |rows: &[f64], r: usize| rows[r * n..(r + 1) * n].iter().sum::<f64>();
        let eps = |e: fn(&LayerVariation) -> &[f64], k: usize| noise.map_or(1.0, |v| e(v)[k]);
        // ∂|θ|/∂θ, with the tape's subgradient 0 at 0.
        let sign = |v: f64| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        };
        let grad_g = |j: usize| sum(&self.g, j);

        let (w_out, rest) = out.split_at_mut(self.fan_in * fo);
        for (k, o) in w_out.iter_mut().enumerate() {
            let eff = sum(&self.w, k) + grad_g(k % fo) * sign(layer.w[k]);
            *o = eff * eps(|v| &v.eps_w, k);
        }
        let (b_out, rest) = rest.split_at_mut(fo);
        let (d_out, rest) = rest.split_at_mut(fo);
        for j in 0..fo {
            let eff_b = sum(&self.b, j) + grad_g(j) * sign(layer.b[j]);
            b_out[j] = eff_b * eps(|v| &v.eps_b, j);
            let eps_d = eps(|v| &v.eps_d, j);
            d_out[j] = grad_g(j) * sign(p.theta_d[j] * eps_d) * eps_d;
        }

        // ∂rc = Δt·(∂a − μ·∂b)/denom², and rc = R·C·ε_R·ε_C, so
        // ∂log R = ∂log C = ∂rc·rc.
        let (filters, etas) = rest.split_at_mut(2 * self.stages * fo);
        for (s, stage_out) in filters.chunks_exact_mut(2 * fo).enumerate() {
            let (r_out, c_out) = stage_out.split_at_mut(fo);
            for j in 0..fo {
                let (mut r, mut c, mut mu) = (p.r[s][j], p.c[s][j], spec.mu_nominal);
                if let Some(v) = noise {
                    r *= v.eps_r[s][j];
                    c *= v.eps_c[s][j];
                    mu = v.mu[s][j];
                }
                let rc = r * c;
                let denom = mu * rc + spec.dt;
                let row = s * fo + j;
                let grad_rc =
                    spec.dt * (sum(&self.a, row) - mu * sum(&self.bc, row)) / (denom * denom);
                r_out[j] = grad_rc * rc;
                c_out[j] = grad_rc * rc;
            }
        }
        for (k, eta_out) in etas.chunks_exact_mut(fo).enumerate() {
            for (j, o) in eta_out.iter_mut().enumerate() {
                let e = noise.map_or(1.0, |v| v.eps_eta[k][j]);
                *o = sum(&self.eta, 4 * j + k) * e;
            }
        }
    }
}

/// The ptanh adjoint over one filter's lanes: `lam ← a·lam + λ_h·∂h/∂v`
/// (`a` the section's decay) and the η accumulators `g`, with `tanh`
/// recomputed into `th` from the voltages `v`. A function of its own, with
/// the `tanh` in a loop of its own, so both lane loops vectorize.
#[inline(never)]
fn ptanh_back(
    (a, [_, e2, e3, e4]): (f64, [f64; 4]),
    (v, lam_h): (&[f64], &[f64]),
    lam: &mut [f64],
    th: &mut [f64],
    [g1, g2, g3, g4]: [&mut [f64]; 4],
) {
    for (t, &v) in th.iter_mut().zip(v) {
        *t = tanh_f64((v - e3) * e4);
    }
    let n = lam.len();
    let (v, lam_h, th) = (&v[..n], &lam_h[..n], &th[..n]);
    let (g1, g2, g3, g4) = (&mut g1[..n], &mut g2[..n], &mut g3[..n], &mut g4[..n]);
    for k in 0..n {
        let g = lam_h[k];
        let d = v[k] - e3;
        let q = g * e2 * (1.0 - th[k] * th[k]);
        let dv = q * e4;
        lam[k] = a * lam[k] + dv;
        g1[k] += g;
        g2[k] += g * th[k];
        g3[k] -= dv;
        g4[k] += q * d;
    }
}
