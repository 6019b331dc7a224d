//! The five augmentation transforms from the paper, plus composition.

use std::cell::RefCell;

use rand::Rng;
use rand::RngCore;

use crate::fft::{irfft, rfft};
use crate::util::{randn, resample, sample_at};

/// A randomized time-series transform.
///
/// Implementations must preserve the series length and be fully determined by
/// the RNG stream (the experiment harness relies on seeded reproducibility).
pub trait Augment {
    /// Applies the transform to one series.
    fn apply(&self, series: &[f64], rng: &mut dyn RngCore) -> Vec<f64>;

    /// Short human-readable name for experiment logs.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------

/// Additive i.i.d. Gaussian noise — "jittering to introduce sensor
/// inaccuracies" (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// Noise standard deviation.
    pub sigma: f64,
}

impl Jitter {
    /// Creates a jitter transform.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Jitter { sigma }
    }
}

impl Augment for Jitter {
    fn apply(&self, series: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        series
            .iter()
            .map(|&v| v + self.sigma * randn(rng))
            .collect()
    }

    fn name(&self) -> &'static str {
        "jitter"
    }
}

// ---------------------------------------------------------------------------

/// Smooth random time warping — "altering the temporal dynamics".
///
/// The time axis is distorted by a sum of low-order sinusoids with random
/// amplitudes; the warp vanishes at both endpoints so the series stays
/// aligned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWarp {
    /// Warp strength (fraction of the series length, typically ≤ 0.2).
    pub strength: f64,
    /// Number of sinusoidal warp components.
    pub knots: usize,
}

impl TimeWarp {
    /// Creates a time-warp transform.
    ///
    /// # Panics
    ///
    /// Panics if `strength` is negative or `knots == 0`.
    pub fn new(strength: f64, knots: usize) -> Self {
        assert!(strength >= 0.0, "strength must be non-negative");
        assert!(knots > 0, "need at least one warp knot");
        TimeWarp { strength, knots }
    }
}

thread_local! {
    /// `(len, knots, sines)`: the warp basis `sin((k+1)·π·t_i)`, `[i][k]`,
    /// of the last shape warped on this thread. Every series of a dataset
    /// has one length, so a pass over it computes the basis once.
    static WARP_BASIS: RefCell<(usize, usize, Vec<f64>)> = const { RefCell::new((0, 0, Vec::new())) };
}

impl Augment for TimeWarp {
    fn apply(&self, series: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        let n = series.len();
        if n < 2 {
            return series.to_vec();
        }
        let amps: Vec<f64> = (0..self.knots)
            .map(|_| self.strength * randn(rng) / self.knots as f64)
            .collect();
        let t = |i: usize| i as f64 / (n - 1) as f64;
        WARP_BASIS.with_borrow_mut(|(len, knots, sines)| {
            if (*len, *knots) != (n, self.knots) {
                sines.clear();
                for i in 0..n {
                    for k in 0..self.knots {
                        sines.push(((k + 1) as f64 * std::f64::consts::PI * t(i)).sin());
                    }
                }
                (*len, *knots) = (n, self.knots);
            }
            sines
                .chunks_exact(self.knots)
                .enumerate()
                .map(|(i, basis)| {
                    let mut warp = 0.0;
                    for (&a, &s) in amps.iter().zip(basis) {
                        warp += a * s;
                    }
                    sample_at(series, (t(i) + warp).clamp(0.0, 1.0) * (n - 1) as f64)
                })
                .collect()
        })
    }

    fn name(&self) -> &'static str {
        "time_warp"
    }
}

// ---------------------------------------------------------------------------

/// Random global amplitude scaling — "simulating changes in sensor readings".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagnitudeScale {
    /// Lower scale bound.
    pub lo: f64,
    /// Upper scale bound.
    pub hi: f64,
}

impl MagnitudeScale {
    /// Creates a magnitude-scaling transform drawing factors from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
        MagnitudeScale { lo, hi }
    }
}

impl Augment for MagnitudeScale {
    fn apply(&self, series: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        let factor = rng.gen_range(self.lo..self.hi);
        series.iter().map(|&v| v * factor).collect()
    }

    fn name(&self) -> &'static str {
        "magnitude_scale"
    }
}

// ---------------------------------------------------------------------------

/// Random cropping — "mimicking partial data availability". A random window
/// of `crop_frac · len` samples is cut out and resampled back to the original
/// length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomCrop {
    /// Fraction of the series retained (0 < crop_frac ≤ 1).
    pub crop_frac: f64,
}

impl RandomCrop {
    /// Creates a random-crop transform.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < crop_frac <= 1`.
    pub fn new(crop_frac: f64) -> Self {
        assert!(
            crop_frac > 0.0 && crop_frac <= 1.0,
            "crop fraction must be in (0, 1]"
        );
        RandomCrop { crop_frac }
    }
}

impl Augment for RandomCrop {
    fn apply(&self, series: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        let n = series.len();
        let window = ((n as f64 * self.crop_frac).round() as usize).clamp(2, n);
        if window == n {
            return series.to_vec();
        }
        let start = rng.gen_range(0..=(n - window));
        resample(&series[start..start + window], n)
    }

    fn name(&self) -> &'static str {
        "random_crop"
    }
}

// ---------------------------------------------------------------------------

/// Frequency-domain noise — "simulating signal distortions". Perturbs the
/// magnitude of randomly chosen FFT bins (conjugate-symmetrically, so the
/// output stays real) and inverse-transforms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyNoise {
    /// Relative magnitude perturbation per selected bin.
    pub sigma: f64,
    /// Fraction of (positive-frequency) bins perturbed.
    pub bin_frac: f64,
}

impl FrequencyNoise {
    /// Creates a frequency-noise transform.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma ≥ 0` and `0 < bin_frac ≤ 1`.
    pub fn new(sigma: f64, bin_frac: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        assert!(
            bin_frac > 0.0 && bin_frac <= 1.0,
            "bin_frac must be in (0, 1]"
        );
        FrequencyNoise { sigma, bin_frac }
    }
}

impl Augment for FrequencyNoise {
    fn apply(&self, series: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        let n = series.len();
        let mut spec = rfft(series);
        let m = spec.len();
        // Perturb positive-frequency bins and mirror onto the conjugate bin.
        for k in 1..m / 2 {
            if rng.gen_range(0.0..1.0) < self.bin_frac {
                let factor = (1.0 + self.sigma * randn(rng)).max(0.0);
                spec[k].0 *= factor;
                spec[k].1 *= factor;
                spec[m - k].0 *= factor;
                spec[m - k].1 *= factor;
            }
        }
        irfft(spec, n)
    }

    fn name(&self) -> &'static str {
        "frequency_noise"
    }
}

// ---------------------------------------------------------------------------

/// Sequential composition of transforms.
pub struct Compose {
    stages: Vec<Box<dyn Augment>>,
}

impl Compose {
    /// Composes the given transforms, applied in order.
    pub fn new(stages: Vec<Box<dyn Augment>>) -> Self {
        Compose { stages }
    }

    /// Number of stages.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// The paper's combined pipeline at a given overall strength in `[0, 1]`
    /// (used by the hyper-parameter grid search).
    pub fn paper_pipeline(strength: f64) -> Self {
        Compose::new(vec![
            Box::new(Jitter::new(0.05 * strength)),
            Box::new(TimeWarp::new(0.15 * strength, 4)),
            Box::new(MagnitudeScale::new(
                1.0 - 0.3 * strength,
                1.0 + 0.3 * strength + 1e-9,
            )),
            Box::new(RandomCrop::new(1.0 - 0.3 * strength)),
            Box::new(FrequencyNoise::new(0.3 * strength, 0.3)),
        ])
    }
}

impl std::fmt::Debug for Compose {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.stages.iter().map(|s| s.name()).collect();
        write!(f, "Compose({names:?})")
    }
}

impl Augment for Compose {
    fn apply(&self, series: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
        let mut out = series.to_vec();
        for stage in &self.stages {
            out = stage.apply(&out, rng);
        }
        out
    }

    fn name(&self) -> &'static str {
        "compose"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sine(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 3.0 * i as f64 / n as f64).sin())
            .collect()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn all_transforms_preserve_length() {
        let s = sine(64);
        let transforms: Vec<Box<dyn Augment>> = vec![
            Box::new(Jitter::new(0.1)),
            Box::new(TimeWarp::new(0.1, 4)),
            Box::new(MagnitudeScale::new(0.8, 1.2)),
            Box::new(RandomCrop::new(0.7)),
            Box::new(FrequencyNoise::new(0.3, 0.5)),
        ];
        for t in &transforms {
            let out = t.apply(&s, &mut rng(0));
            assert_eq!(out.len(), s.len(), "{} changed length", t.name());
        }
    }

    #[test]
    fn transforms_are_seed_deterministic() {
        let s = sine(64);
        let t = Compose::paper_pipeline(0.5);
        let a = t.apply(&s, &mut rng(9));
        let b = t.apply(&s, &mut rng(9));
        assert_eq!(a, b);
        let c = t.apply(&s, &mut rng(10));
        assert_ne!(a, c);
    }

    #[test]
    fn jitter_noise_scale_is_sigma() {
        let s = vec![0.0; 20_000];
        let out = Jitter::new(0.25).apply(&s, &mut rng(1));
        let var: f64 = out.iter().map(|v| v * v).sum::<f64>() / out.len() as f64;
        assert!((var.sqrt() - 0.25).abs() < 0.01);
    }

    #[test]
    fn zero_sigma_jitter_is_identity() {
        let s = sine(32);
        assert_eq!(Jitter::new(0.0).apply(&s, &mut rng(2)), s);
    }

    #[test]
    fn time_warp_preserves_endpoints() {
        let s = sine(64);
        let out = TimeWarp::new(0.2, 4).apply(&s, &mut rng(3));
        assert!((out[0] - s[0]).abs() < 1e-9);
        assert!((out[63] - s[63]).abs() < 1e-9);
        assert_ne!(out, s);
    }

    #[test]
    fn time_warp_basis_follows_the_series_shape() {
        // The basis computed inline, per sample, as the warp is defined.
        fn uncached(tw: &TimeWarp, series: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
            let n = series.len();
            let amps: Vec<f64> = (0..tw.knots)
                .map(|_| tw.strength * randn(rng) / tw.knots as f64)
                .collect();
            (0..n)
                .map(|i| {
                    let t = i as f64 / (n - 1) as f64;
                    let mut warp = 0.0;
                    for (k, &a) in amps.iter().enumerate() {
                        warp += a * ((k + 1) as f64 * std::f64::consts::PI * t).sin();
                    }
                    sample_at(series, (t + warp).clamp(0.0, 1.0) * (n - 1) as f64)
                })
                .collect()
        }
        // Shape changes in length alone, in knots alone, and back again.
        let shapes = [(64, 4), (100, 4), (64, 4), (64, 7), (100, 2), (64, 4)];
        for (seed, &(n, knots)) in shapes.iter().enumerate() {
            let s = sine(n);
            let tw = TimeWarp::new(0.2, knots);
            let got = tw.apply(&s, &mut rng(seed as u64));
            let want = uncached(&tw, &s, &mut rng(seed as u64));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "len {n}, {knots} knots");
        }
    }

    #[test]
    fn magnitude_scale_is_multiplicative() {
        let s = sine(32);
        let out = MagnitudeScale::new(0.5, 2.0).apply(&s, &mut rng(4));
        // Ratio must be constant across samples (where s != 0).
        let ratios: Vec<f64> = s
            .iter()
            .zip(&out)
            .filter(|(x, _)| x.abs() > 1e-6)
            .map(|(x, y)| y / x)
            .collect();
        let first = ratios[0];
        assert!(ratios.iter().all(|r| (r - first).abs() < 1e-9));
        assert!((0.5..2.0).contains(&first));
    }

    #[test]
    fn full_crop_is_identity() {
        let s = sine(32);
        assert_eq!(RandomCrop::new(1.0).apply(&s, &mut rng(5)), s);
    }

    #[test]
    fn crop_zooms_into_window() {
        let s: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let out = RandomCrop::new(0.5).apply(&s, &mut rng(6));
        // A linear ramp cropped and resampled is still linear but with half
        // the overall span.
        let span = out[63] - out[0];
        assert!((span - 31.0).abs() < 1.0, "span {span}");
    }

    #[test]
    fn frequency_noise_output_is_real_and_perturbed() {
        let s = sine(64);
        let out = FrequencyNoise::new(0.5, 0.8).apply(&s, &mut rng(7));
        assert!(out.iter().all(|v| v.is_finite()));
        let diff: f64 = s.iter().zip(&out).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 0.1, "spectrum perturbation had no effect");
    }

    #[test]
    fn frequency_noise_keeps_dc() {
        // DC bin (k=0) is never perturbed.
        let s = vec![3.0; 64];
        let out = FrequencyNoise::new(0.5, 1.0).apply(&s, &mut rng(8));
        for v in &out {
            assert!((v - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn compose_applies_in_order() {
        let s = sine(32);
        let pipeline = Compose::new(vec![
            Box::new(MagnitudeScale::new(2.0, 2.0 + 1e-12)),
            Box::new(MagnitudeScale::new(3.0, 3.0 + 1e-12)),
        ]);
        let out = pipeline.apply(&s, &mut rng(11));
        for (a, b) in s.iter().zip(&out) {
            assert!((b - 6.0 * a).abs() < 1e-9);
        }
        assert_eq!(pipeline.len(), 2);
    }

    #[test]
    fn paper_pipeline_has_five_stages() {
        assert_eq!(Compose::paper_pipeline(0.5).len(), 5);
    }

    #[test]
    #[should_panic(expected = "crop fraction")]
    fn bad_crop_frac_panics() {
        RandomCrop::new(0.0);
    }
}
