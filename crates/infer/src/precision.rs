//! The precisions of the inference kernel: the [`Precision`] selector,
//! the fixed-point [`QFormat`], and the per-element arithmetic
//! ([`Arith`]) that the one filter-major kernel in
//! [`kernel`](crate::kernel) is generic over.
//!
//! * **`f64`** is the reference. It replicates the autograd kernels
//!   operation for operation — ascending fan-in accumulation,
//!   `(acc + θ_b)/G` — except `tanh`, which is an in-crate branch-free
//!   `expm1` form within 4 ulp of `std`'s, so its lane loop has no libm
//!   call. Logits stay within 1e-9 of autograd (accuracies identical), and
//!   golden digests pin its bits.
//! * **`f32`** runs the same cascade in single precision, with the
//!   crossbar's `1/G` normalization folded into the weights at compile
//!   time and a branch-free rational `tanh`.
//! * **`i32`** is saturating fixed point: signals in a configurable
//!   Q-format ([`QFormat`], default Q7.24), section coefficients at fixed
//!   Q2.29 (they lie in `(0, 2)`), `i64` intermediates with
//!   round-to-nearest rescaling, and a LUT + linear-interpolation `tanh`
//!   in Q1.30. Every narrowing saturates instead of wrapping
//!   (anti-windup), so a fault burst can pin a filter at full scale but
//!   never flip its sign.
//!
//! Every precision holds its filter state as the stage voltages of the
//! paper's cascade (`v ← a·v + b·x` per first-order section), so the `f64`
//! wire format that sessions persist is one element conversion away from
//! the kernel state, with no algebra in between.

use crate::model::BuildError;

/// Fixed-point signal format for the `i32` backend: values are stored as
/// `round(x · 2^frac_bits)` in a saturating `i32`, i.e. `Q(31−f).f` with
/// representable range `±2^(31−f)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    frac_bits: u32,
}

impl QFormat {
    /// Fewest fractional bits supported (coarser would leave the `tanh`
    /// LUT without interpolation bits).
    pub const MIN_FRAC_BITS: u32 = 8;
    /// Most fractional bits supported (finer would overflow the `i64`
    /// crossbar accumulator even at fan-in 1).
    pub const MAX_FRAC_BITS: u32 = 28;
    /// The default serving format, Q7.24: ±128 range, ~6e-8 resolution.
    pub const DEFAULT: QFormat = QFormat { frac_bits: 24 };

    /// A format with `frac_bits` fractional bits.
    ///
    /// # Errors
    ///
    /// [`BuildError::BadQFormat`] outside
    /// [`MIN_FRAC_BITS`](Self::MIN_FRAC_BITS)`..=`[`MAX_FRAC_BITS`](Self::MAX_FRAC_BITS).
    pub fn new(frac_bits: u32) -> Result<QFormat, BuildError> {
        if !(Self::MIN_FRAC_BITS..=Self::MAX_FRAC_BITS).contains(&frac_bits) {
            return Err(BuildError::BadQFormat { frac_bits });
        }
        Ok(QFormat { frac_bits })
    }

    /// Fractional bits of the format.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Largest magnitude the format can represent (`≈ 2^(31−frac_bits)`).
    pub fn range(&self) -> f64 {
        i32::MAX as f64 / (1i64 << self.frac_bits) as f64
    }

    /// The finest format whose `i64` crossbar accumulator cannot overflow
    /// at `fan_in` (one product per input plus the bias term, each bounded
    /// by `2^(31+f)` since folded weights satisfy `|w/G| ≤ 1`).
    pub fn max_frac_bits_for(fan_in: usize) -> u32 {
        let terms = (fan_in + 1).next_power_of_two().trailing_zeros();
        31u32.saturating_sub(terms).min(Self::MAX_FRAC_BITS)
    }

    /// Checks this format against an architecture's widest fan-in.
    ///
    /// # Errors
    ///
    /// [`BuildError::QFormatOverflow`] when `fan_in` products could
    /// overflow the accumulator at this many fractional bits.
    pub fn validate_for(&self, fan_in: usize) -> Result<(), BuildError> {
        let max = Self::max_frac_bits_for(fan_in);
        if self.frac_bits > max {
            return Err(BuildError::QFormatOverflow {
                frac_bits: self.frac_bits,
                max_frac_bits: max,
            });
        }
        Ok(())
    }
}

impl Default for QFormat {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl std::fmt::Display for QFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.frac_bits)
    }
}

/// Which arithmetic an [`InferModel`](crate::InferModel) compiles its
/// kernel in. `F64` is the bitwise-pinned reference; `F32` and `I32`
/// trade that fidelity for throughput and hardware realism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// The reference path: the autograd arithmetic operation for
    /// operation, with a `tanh` within 4 ulp of `std`'s (logits within
    /// 1e-9 of autograd).
    #[default]
    F64,
    /// Single precision with a rational `tanh`.
    F32,
    /// Saturating fixed point in the given signal format, with a LUT +
    /// linear-interpolation `tanh`.
    I32(QFormat),
}

impl Precision {
    /// Canonical lowercase name: `"f64"`, `"f32"`, `"i32q24"`, … — the
    /// spelling snapshots carry in their `precision` hint.
    pub fn name(&self) -> String {
        match self {
            Precision::F64 => "f64".into(),
            Precision::F32 => "f32".into(),
            Precision::I32(q) => format!("i32{q}"),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// A precision string that could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecisionParseError {
    input: String,
}

impl std::fmt::Display for PrecisionParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown precision {:?} (expected \"f64\", \"f32\", \"i32\" or \"i32q<bits>\" \
             with {}..={} fractional bits)",
            self.input,
            QFormat::MIN_FRAC_BITS,
            QFormat::MAX_FRAC_BITS
        )
    }
}

impl std::error::Error for PrecisionParseError {}

impl std::str::FromStr for Precision {
    type Err = PrecisionParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || PrecisionParseError { input: s.into() };
        match s {
            "f64" => Ok(Precision::F64),
            "f32" => Ok(Precision::F32),
            "i32" => Ok(Precision::I32(QFormat::DEFAULT)),
            _ => {
                let bits = s.strip_prefix("i32q").ok_or_else(err)?;
                let bits: u32 = bits.parse().map_err(|_| err())?;
                let q = QFormat::new(bits).map_err(|_| err())?;
                Ok(Precision::I32(q))
            }
        }
    }
}

/// The per-element arithmetic of one precision — everything the kernel
/// needs to know about its number type. Implemented by [`F64`], [`F32`]
/// and [`QFormat`] (saturating fixed point).
pub(crate) trait Arith: Copy + std::fmt::Debug {
    /// Buffer element.
    type T: Copy + Default + std::fmt::Debug;
    /// Crossbar accumulator.
    type Acc: Copy + Default + std::fmt::Debug;
    /// What the crossbar keeps per column to finish `(acc + θ_b)/G`: `G`
    /// itself for the `f64` reference, which divides so its arithmetic
    /// stays the autograd's; nothing where [`Arith::weight`] folds `1/G`
    /// into θ_w and θ_b.
    type Norm: Copy + std::fmt::Debug;

    /// A signal value (input, stage voltage, η) in this precision.
    fn signal(self, x: f64) -> Self::T;
    /// A crossbar weight or bias `θ` in a column whose conductance sum is
    /// `g`; by default with `1/G` folded in.
    fn weight(self, theta: f64, g: f64) -> Self::T {
        self.signal(theta / g)
    }
    /// The per-column value [`Arith::crossbar`] divides by.
    fn norm(self, g: f64) -> Self::Norm;
    /// A section coefficient `a` or `b` in this precision.
    fn coeff(self, x: f64) -> Self::T;
    /// A signal value back in `f64`.
    fn to_f64(self, v: Self::T) -> f64;
    /// Crossbar multiply-accumulate: `acc + w·x`.
    fn mac(self, acc: Self::Acc, w: Self::T, x: Self::T) -> Self::Acc;
    /// Crossbar output `(acc + θ_b)/G`.
    fn crossbar(self, acc: Self::Acc, b: Self::T, g: Self::Norm) -> Self::T;
    /// One first-order section update: `a·v + b·x`.
    fn section(self, a: Self::T, v: Self::T, b: Self::T, x: Self::T) -> Self::T;
    /// `ptanh` over one filter's lanes: `out = η₁ + η₂·tanh((v − η₃)·η₄)`.
    fn ptanh(self, eta: [Self::T; 4], v: &[Self::T], out: &mut [Self::T]);
}

/// The `f64` reference arithmetic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct F64;

impl Arith for F64 {
    type T = f64;
    type Acc = f64;
    type Norm = f64;

    #[inline]
    fn signal(self, x: f64) -> f64 {
        x
    }
    #[inline]
    fn weight(self, theta: f64, _g: f64) -> f64 {
        theta
    }
    #[inline]
    fn norm(self, g: f64) -> f64 {
        g
    }
    #[inline]
    fn coeff(self, x: f64) -> f64 {
        x
    }
    #[inline]
    fn to_f64(self, v: f64) -> f64 {
        v
    }
    #[inline]
    fn mac(self, acc: f64, w: f64, x: f64) -> f64 {
        acc + x * w
    }
    #[inline]
    fn crossbar(self, acc: f64, b: f64, g: f64) -> f64 {
        (acc + b) / g
    }
    #[inline]
    fn section(self, a: f64, v: f64, b: f64, x: f64) -> f64 {
        a * v + b * x
    }
    #[inline]
    fn ptanh(self, [e1, e2, e3, e4]: [f64; 4], v: &[f64], out: &mut [f64]) {
        for (o, &v) in out.iter_mut().zip(v) {
            *o = e1 + e2 * tanh_f64((v - e3) * e4);
        }
    }
}

/// Single-precision arithmetic with a rational `tanh`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct F32;

impl Arith for F32 {
    type T = f32;
    type Acc = f32;
    type Norm = ();

    #[inline]
    fn signal(self, x: f64) -> f32 {
        x as f32
    }
    #[inline]
    fn norm(self, _g: f64) {}
    #[inline]
    fn coeff(self, x: f64) -> f32 {
        x as f32
    }
    #[inline]
    fn to_f64(self, v: f32) -> f64 {
        v as f64
    }
    #[inline]
    fn mac(self, acc: f32, w: f32, x: f32) -> f32 {
        acc + w * x
    }
    #[inline]
    fn crossbar(self, acc: f32, b: f32, _g: ()) -> f32 {
        acc + b
    }
    #[inline]
    fn section(self, a: f32, v: f32, b: f32, x: f32) -> f32 {
        a * v + b * x
    }
    #[inline]
    fn ptanh(self, [e1, e2, e3, e4]: [f32; 4], v: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(v) {
            *o = e1 + e2 * tanh_f32((v - e3) * e4);
        }
    }
}

/// Saturating fixed point in this signal format.
impl Arith for QFormat {
    type T = i32;
    type Acc = i64;
    type Norm = ();

    #[inline]
    fn signal(self, x: f64) -> i32 {
        quantize(x, self.frac_bits)
    }
    #[inline]
    fn norm(self, _g: f64) {}
    #[inline]
    fn coeff(self, x: f64) -> i32 {
        quantize(x, COEFF_FRAC)
    }
    #[inline]
    fn to_f64(self, v: i32) -> f64 {
        dequant(v, self.frac_bits)
    }
    /// Products carry `2f` fractional bits; the `i64` sum cannot overflow
    /// at any fan-in [`QFormat::validate_for`] accepts.
    #[inline]
    fn mac(self, acc: i64, w: i32, x: i32) -> i64 {
        acc + w as i64 * x as i64
    }
    #[inline]
    fn crossbar(self, acc: i64, b: i32, _g: ()) -> i32 {
        let f = self.frac_bits;
        sat((acc + ((b as i64) << f) + (1 << (f - 1))) >> f)
    }
    #[inline]
    fn section(self, a: i32, v: i32, b: i32, x: i32) -> i32 {
        let t = a as i64 * v as i64 + b as i64 * x as i64;
        sat((t + (1 << (COEFF_FRAC - 1))) >> COEFF_FRAC)
    }
    #[inline]
    fn ptanh(self, [e1, e2, e3, e4]: [i32; 4], v: &[i32], out: &mut [i32]) {
        let (f, lut) = (self.frac_bits, tanh_lut());
        for (o, &v) in out.iter_mut().zip(v) {
            let d = sat(v as i64 - e3 as i64);
            let arg = sat((d as i64 * e4 as i64 + (1 << (f - 1))) >> f);
            let t = tanh_i32(lut, arg, f) as i64;
            *o = sat(e1 as i64 + ((e2 as i64 * t + (1 << (TANH_FRAC - 1))) >> TANH_FRAC));
        }
    }
}

/// Branch-free `f64` `tanh` in the `expm1` form: `tanh|x| = (1 − e)/(1 + e)`
/// with `e = e^(−2|x|)`, and the sign of `x` is copied back, so the
/// function is exactly odd and keeps `±0`. It reduces `−2|x| = k·ln2 + r`
/// (`|r| ≤ ln2/2`, Cody–Waite split `ln2`), sums the degree-13 Taylor
/// series of `expm1(r)`, and builds `2^k` from exponent bits; then
/// `e = 2^k + 2^k·expm1(r)`, and each side of the quotient combines the small
/// term with an exact `1 ∓ 2^k`, one rounding each, so small `|x|` loses
/// nothing to cancellation. No libm call and no branch, so per-lane loops
/// vectorize. Within 4 ulp of `std`'s `tanh`; `|x| ≥ 22` (where `tanh`
/// rounds to 1) is clamped, which keeps `2^k` normal and returns exactly
/// `±1`; NaN propagates.
#[inline(always)]
pub(crate) fn tanh_f64(x: f64) -> f64 {
    const LN2_HI: f64 = 6.931_471_803_691_238e-1; // low 21 bits zero: k·LN2_HI is exact
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    /// Adding `1.5·2^52` rounds to an integer held in the low mantissa bits.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    /// `1/n!` for `n = 2..=13`.
    const INV_FACT: [f64; 12] = [
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5040.0,
        1.0 / 40320.0,
        1.0 / 362880.0,
        1.0 / 3628800.0,
        1.0 / 39916800.0,
        1.0 / 479001600.0,
        1.0 / 6227020800.0,
    ];
    let a = x.abs();
    // `a > 22` is false for NaN, which then flows through to the result.
    let z = -2.0 * if a > 22.0 { 22.0 } else { a };
    let shifted = z * std::f64::consts::LOG2_E + ROUND;
    let k = shifted - ROUND;
    let r = (z - k * LN2_HI) - k * LN2_LO;
    let mut q = INV_FACT[11];
    for &c in INV_FACT[..11].iter().rev() {
        q = q * r + c;
    }
    let expm1_r = r + r * r * q;
    // The low 12 bits of `shifted` hold `k` (two's complement, −63 ≤ k ≤ 0).
    let two_k = f64::from_bits((shifted.to_bits() << 52).wrapping_add(1023 << 52));
    let scaled = two_k * expm1_r;
    ((1.0 - two_k - scaled) / (1.0 + two_k + scaled)).copysign(x)
}

/// Branch-free rational `tanh` approximation (Eigen's vectorizable
/// `x·P(x²)/Q(x²)` form), accurate to a few f32 ulps over the clamp
/// range. NaN propagates, matching `f64::tanh`.
#[inline(always)]
fn tanh_f32(x: f32) -> f32 {
    const CLAMP: f32 = 7.905_31;
    const A1: f32 = 4.893_525e-3;
    const A3: f32 = 6.372_619e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let mut p = A13;
    p = x2 * p + A11;
    p = x2 * p + A9;
    p = x2 * p + A7;
    p = x2 * p + A5;
    p = x2 * p + A3;
    p = x2 * p + A1;
    p *= x;
    let mut q = B6;
    q = x2 * q + B4;
    q = x2 * q + B2;
    q = x2 * q + B0;
    p / q
}

/// Section coefficients `a = RC/(μRC+Δt)` and `b = Δt/(μRC+Δt)` lie in
/// `(0, 2)` for any μ above ½, so they live at fixed Q2.29 regardless of
/// the signal format.
const COEFF_FRAC: u32 = 29;
/// `tanh` output lives in Q1.30 (`|tanh| < 1`).
const TANH_FRAC: u32 = 30;
/// LUT resolution: 1024 intervals of width 1/128 over `[0, 8)`.
const LUT_SHIFT: u32 = 7;

/// Saturate an `i64` intermediate into a symmetric `i32`.
#[inline(always)]
fn sat(v: i64) -> i32 {
    v.clamp(-(i32::MAX as i64), i32::MAX as i64) as i32
}

/// Quantize an `f64` to the given fractional format, saturating (NaN → 0,
/// the format's additive identity — guarded inputs are finite anyway).
#[inline]
fn quantize(x: f64, frac: u32) -> i32 {
    let v = (x * (1i64 << frac) as f64).round();
    if v.is_nan() {
        0
    } else {
        v.clamp(-(i32::MAX as f64), i32::MAX as f64) as i32
    }
}

#[inline]
fn dequant(v: i32, frac: u32) -> f64 {
    v as f64 / (1i64 << frac) as f64
}

/// `tanh` lookup table in Q1.30: `tanh(k/128)` for `k = 0..=1024`, with
/// the last entry duplicated so a saturated index interpolates flat.
/// Stored inline in the `OnceLock` — initialization performs no heap
/// allocation, preserving the zero-allocs-per-forward property.
static TANH_LUT: std::sync::OnceLock<[i32; 1026]> = std::sync::OnceLock::new();

fn tanh_lut() -> &'static [i32; 1026] {
    TANH_LUT.get_or_init(|| {
        let mut t = [0i32; 1026];
        let one = (1i64 << TANH_FRAC) as f64;
        for (k, slot) in t.iter_mut().take(1025).enumerate() {
            *slot = ((k as f64 / 128.0).tanh() * one).round() as i32;
        }
        t[1025] = t[1024];
        t
    })
}

/// Branch-free LUT + linear interpolation `tanh`: signal-format argument
/// in, Q1.30 out. Arguments beyond ±8 clamp to the table edge.
#[inline(always)]
fn tanh_i32(lut: &[i32; 1026], arg: i32, frac: u32) -> i32 {
    let shift = frac - LUT_SHIFT;
    let a = (arg as i64).abs().min(8i64 << frac);
    let idx = (a >> shift) as usize;
    let fbits = a & ((1i64 << shift) - 1);
    let t0 = lut[idx] as i64;
    let t1 = lut[idx + 1] as i64;
    let val = (t0 + (((t1 - t0) * fbits) >> shift)) as i32;
    if arg < 0 {
        -val
    } else {
        val
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qformat_bounds_are_enforced() {
        assert!(QFormat::new(7).is_err());
        assert!(QFormat::new(29).is_err());
        assert_eq!(QFormat::new(24).unwrap(), QFormat::DEFAULT);
        assert_eq!(QFormat::DEFAULT.frac_bits(), 24);
        assert!((QFormat::DEFAULT.range() - 128.0).abs() < 1e-6);
    }

    #[test]
    fn qformat_fan_in_headroom() {
        // 16 inputs: 17 terms round up to 32 = 2^5 → 26 fractional bits.
        assert_eq!(QFormat::max_frac_bits_for(16), 26);
        assert_eq!(QFormat::max_frac_bits_for(64), 24);
        assert!(QFormat::DEFAULT.validate_for(64).is_ok());
        assert!(matches!(
            QFormat::DEFAULT.validate_for(256),
            Err(BuildError::QFormatOverflow { .. })
        ));
        // Tiny fan-in is capped by MAX_FRAC_BITS, not the headroom rule.
        assert_eq!(QFormat::max_frac_bits_for(1), 28);
    }

    #[test]
    fn precision_names_round_trip() {
        for p in [
            Precision::F64,
            Precision::F32,
            Precision::I32(QFormat::DEFAULT),
            Precision::I32(QFormat::new(12).unwrap()),
        ] {
            assert_eq!(p.name().parse::<Precision>().unwrap(), p);
        }
        assert_eq!(
            "i32".parse::<Precision>().unwrap(),
            Precision::I32(QFormat::DEFAULT)
        );
        assert!("f16".parse::<Precision>().is_err());
        assert!("i32q99".parse::<Precision>().is_err());
        assert!("i32qx".parse::<Precision>().is_err());
        assert_eq!(Precision::default(), Precision::F64);
    }

    /// Distance in units in the last place between two finite values of
    /// the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    #[test]
    fn tanh_f64_is_within_4_ulp_of_std() {
        const N: usize = 1_200_000;
        let mut worst = (0u64, 0.0f64);
        for i in 0..=N {
            let x = -22.0 + 44.0 * i as f64 / N as f64;
            let (got, want) = (tanh_f64(x), x.tanh());
            assert_eq!(got.to_bits(), (-tanh_f64(-x)).to_bits(), "odd at {x}");
            let d = if got == want { 0 } else { ulps(got, want) };
            if d > worst.0 {
                worst = (d, x);
            }
        }
        // Relative accuracy near zero, where tanh x ≈ x, on a log grid.
        for e in -1074..0 {
            for m in [1.0, 1.3, 1.7] {
                let x = m * 2f64.powi(e);
                let d = ulps(tanh_f64(x), x.tanh());
                if d > worst.0 {
                    worst = (d, x);
                }
            }
        }
        assert!(worst.0 <= 4, "{} ulp at x = {:e}", worst.0, worst.1);
    }

    #[test]
    fn tanh_f64_special_values() {
        assert_eq!(tanh_f64(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh_f64(-0.0).to_bits(), (-0.0f64).to_bits());
        assert!(tanh_f64(f64::NAN).is_nan());
        assert!(tanh_f64(-f64::NAN).is_nan());
        assert_eq!(tanh_f64(f64::INFINITY), 1.0);
        assert_eq!(tanh_f64(f64::NEG_INFINITY), -1.0);
        // Subnormals: tanh x = x exactly.
        for x in [f64::from_bits(1), 1e-310, -1e-310, f64::MIN_POSITIVE / 3.0] {
            assert_eq!(tanh_f64(x), x, "subnormal {x:e}");
        }
        // Exactly ±1 from where std rounds to 1, through the clamp, to the
        // largest finite value.
        let mut x = 19.1f64;
        while x < 30.0 {
            assert_eq!(x.tanh(), 1.0);
            assert_eq!(tanh_f64(x), 1.0, "saturation at {x}");
            assert_eq!(tanh_f64(-x), -1.0, "saturation at -{x}");
            x += 0.01;
        }
        assert_eq!(tanh_f64(f64::MAX), 1.0);
        assert_eq!(tanh_f64(-f64::MAX), -1.0);
    }

    #[test]
    fn tanh_f32_tracks_reference() {
        let mut max_err = 0.0f64;
        for k in -4000..=4000 {
            let x = k as f64 * 0.0025; // covers ±10 incl. the clamp region
            let err = (tanh_f32(x as f32) as f64 - x.tanh()).abs();
            max_err = max_err.max(err);
        }
        assert!(max_err < 2e-6, "poly tanh max err {max_err}");
        assert_eq!(tanh_f32(0.0), 0.0);
        assert!(tanh_f32(f32::NAN).is_nan());
    }

    #[test]
    fn tanh_i32_tracks_reference() {
        let lut = tanh_lut();
        let q = QFormat::DEFAULT;
        let f = q.frac_bits();
        let mut max_err = 0.0f64;
        for k in -4000..=4000 {
            let x = k as f64 * 0.0025;
            let got = dequant(tanh_i32(lut, quantize(x, f), f), TANH_FRAC);
            max_err = max_err.max((got - x.tanh()).abs());
        }
        assert!(max_err < 5e-5, "LUT tanh max err {max_err}");
        // Odd symmetry and saturation.
        assert_eq!(
            tanh_i32(lut, quantize(1.5, f), f),
            -tanh_i32(lut, quantize(-1.5, f), f)
        );
        let sat_hi = tanh_i32(lut, i32::MAX, f);
        assert!(dequant(sat_hi, TANH_FRAC) > 0.9999);
    }

    #[test]
    fn quantize_saturates_and_round_trips() {
        let f = 24;
        assert_eq!(quantize(f64::NAN, f), 0);
        assert_eq!(quantize(1e12, f), i32::MAX);
        assert_eq!(quantize(-1e12, f), -i32::MAX);
        for x in [0.0, 0.5, -0.125, 3.75, -100.0] {
            assert_eq!(dequant(quantize(x, f), f), x, "{x} not exact");
        }
        // sat clamps symmetric.
        assert_eq!(sat(i64::MAX), i32::MAX);
        assert_eq!(sat(i64::MIN), -i32::MAX);
        assert_eq!(sat(-7), -7);
    }
}
