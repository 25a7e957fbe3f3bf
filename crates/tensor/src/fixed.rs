//! Q16.16 32-bit fixed-point arithmetic.
//!
//! HyGCN's datapath is 32-bit fixed point, which the paper states "is
//! enough to maintain the accuracy of GCN inference" (§5.2.1). This module
//! provides the datapath type used to validate that claim against the f32
//! golden model: saturating arithmetic with 16 fractional bits.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Number of fractional bits.
pub const FRAC_BITS: u32 = 16;
const ONE_RAW: i64 = 1 << FRAC_BITS;

/// A Q16.16 fixed-point number stored in an `i32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fixed32(i32);

impl Fixed32 {
    /// Zero.
    pub const ZERO: Fixed32 = Fixed32(0);
    /// One.
    pub const ONE: Fixed32 = Fixed32(ONE_RAW as i32);
    /// Largest representable value (~32768).
    pub const MAX: Fixed32 = Fixed32(i32::MAX);
    /// Smallest representable value (~-32768).
    pub const MIN: Fixed32 = Fixed32(i32::MIN);

    /// Converts from `f32` with saturation at the representable range.
    pub fn from_f32(x: f32) -> Self {
        let scaled = (x as f64 * ONE_RAW as f64).round();
        if scaled >= i32::MAX as f64 {
            Self::MAX
        } else if scaled <= i32::MIN as f64 {
            Self::MIN
        } else {
            Fixed32(scaled as i32)
        }
    }

    /// Converts to `f32`.
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / ONE_RAW as f32
    }

    /// The raw representation.
    pub fn raw(self) -> i32 {
        self.0
    }

    /// Saturating multiply-accumulate `self + a * b` — one PE operation of
    /// the systolic array.
    pub fn mac(self, a: Fixed32, b: Fixed32) -> Fixed32 {
        let prod = (i64::from(a.0) * i64::from(b.0)) >> FRAC_BITS;
        let sum = i64::from(self.0) + prod;
        Fixed32(sum.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
    }

    /// ReLU on the raw representation.
    pub fn relu(self) -> Fixed32 {
        Fixed32(self.0.max(0))
    }
}

impl Add for Fixed32 {
    type Output = Fixed32;

    fn add(self, rhs: Fixed32) -> Fixed32 {
        Fixed32(self.0.saturating_add(rhs.0))
    }
}

impl Sub for Fixed32 {
    type Output = Fixed32;

    fn sub(self, rhs: Fixed32) -> Fixed32 {
        Fixed32(self.0.saturating_sub(rhs.0))
    }
}

impl Mul for Fixed32 {
    type Output = Fixed32;

    fn mul(self, rhs: Fixed32) -> Fixed32 {
        let prod = (i64::from(self.0) * i64::from(rhs.0)) >> FRAC_BITS;
        Fixed32(prod.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
    }
}

impl Neg for Fixed32 {
    type Output = Fixed32;

    fn neg(self) -> Fixed32 {
        Fixed32(self.0.saturating_neg())
    }
}

impl From<i16> for Fixed32 {
    fn from(v: i16) -> Self {
        Fixed32(i32::from(v) << FRAC_BITS)
    }
}

impl fmt::Display for Fixed32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Quantizes an `f32` slice to fixed point.
pub fn quantize(xs: &[f32]) -> Vec<Fixed32> {
    xs.iter().map(|&x| Fixed32::from_f32(x)).collect()
}

/// Dequantizes back to `f32`.
pub fn dequantize(xs: &[Fixed32]) -> Vec<f32> {
    xs.iter().map(|x| x.to_f32()).collect()
}

/// Fixed-point MVM: `y = W * x` with per-element MAC, mirroring the
/// systolic datapath. `w_rows` are the rows of the weight matrix.
pub fn mvm_fixed(w_rows: &[Vec<Fixed32>], x: &[Fixed32]) -> Vec<Fixed32> {
    w_rows
        .iter()
        .map(|row| {
            let mut acc = Fixed32::ZERO;
            for (&a, &b) in row.iter().zip(x) {
                acc = acc.mac(a, b);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small_values() {
        for &x in &[0.0f32, 1.0, -1.5, 0.25, 100.125] {
            let q = Fixed32::from_f32(x);
            assert!((q.to_f32() - x).abs() < 1.0 / ONE_RAW as f32 * 2.0, "{x}");
        }
    }

    #[test]
    fn arithmetic_matches_float() {
        let a = Fixed32::from_f32(1.5);
        let b = Fixed32::from_f32(2.25);
        assert!(((a + b).to_f32() - 3.75).abs() < 1e-4);
        assert!(((a - b).to_f32() + 0.75).abs() < 1e-4);
        assert!(((a * b).to_f32() - 3.375).abs() < 1e-3);
        assert!(((-a).to_f32() + 1.5).abs() < 1e-4);
    }

    #[test]
    fn saturation_instead_of_overflow() {
        let big = Fixed32::from_f32(30000.0);
        assert_eq!(big + big, Fixed32::MAX);
        assert_eq!(Fixed32::from_f32(40000.0), Fixed32::MAX);
        assert_eq!(Fixed32::from_f32(-40000.0), Fixed32::MIN);
    }

    #[test]
    fn mac_accumulates() {
        let acc = Fixed32::ZERO
            .mac(Fixed32::from_f32(2.0), Fixed32::from_f32(3.0))
            .mac(Fixed32::from_f32(1.0), Fixed32::from_f32(0.5));
        assert!((acc.to_f32() - 6.5).abs() < 1e-3);
    }

    #[test]
    fn relu_on_fixed() {
        assert_eq!(Fixed32::from_f32(-2.0).relu(), Fixed32::ZERO);
        let p = Fixed32::from_f32(2.0);
        assert_eq!(p.relu(), p);
    }

    #[test]
    fn quantize_dequantize_error_bounded() {
        let xs: Vec<f32> = (0..100).map(|i| (i as f32) * 0.013 - 0.5).collect();
        let round = dequantize(&quantize(&xs));
        for (a, b) in xs.iter().zip(&round) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn mvm_fixed_matches_float_mvm() {
        use crate::{linalg, Matrix};
        let w = Matrix::random(8, 16, 0.5, 3);
        let x: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.1).collect();
        let yf = linalg::mvm(&w, &x).unwrap();
        let wq: Vec<Vec<Fixed32>> = (0..8).map(|r| quantize(w.row(r))).collect();
        let yq = mvm_fixed(&wq, &quantize(&x));
        for (a, b) in yf.iter().zip(&yq) {
            assert!((a - b.to_f32()).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn from_i16_exact() {
        assert_eq!(Fixed32::from(3i16).to_f32(), 3.0);
        assert_eq!(Fixed32::from(-7i16).to_f32(), -7.0);
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(Fixed32::ONE.to_string(), "1");
    }
}
