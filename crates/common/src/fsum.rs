//! Exact, order-independent `f64` summation.
//!
//! Floating-point addition is not associative, so a sum's last bits depend
//! on evaluation order — which chunk a row landed in, how many shards the
//! table was split into, how a merge tree was shaped. That would make
//! "parallel/distributed execution is bit-identical to sequential" an
//! impossible promise for `SUM`/`AVG` over floats. [`FloatSum`] removes the
//! order dependence at the root: it accumulates into a fixed-point
//! "superaccumulator" (a Kulisch-style long accumulator) wide enough to
//! hold any sum of `f64`s *exactly*. Integer addition is associative and
//! commutative, so any grouping of rows into chunks, shards or tree nodes
//! produces the same accumulator state, and [`FloatSum::value`] rounds the
//! exact sum to the nearest `f64` exactly once.
//!
//! Layout: a 2176-bit two's-complement integer (34 × u64 limbs, little
//! endian) where bit 0 has weight 2^-1074 (the smallest subnormal). The
//! largest finite `f64` puts its mantissa's top bit at position 2097, so
//! 2176 bits leave 78 guard bits of headroom — enough for 2^63 worst-case
//! additions without overflow. Non-finite inputs are tracked in flags with
//! the IEEE semantics of a running sum (any NaN poisons; +∞ and −∞
//! together yield NaN), which are order-independent as well.
//!
//! Most float columns never need it. A column whose finite values are all
//! multiples of one power of two 2^e — its [`Grid`] — and whose rows ×
//! max|x| stay within 2^(e+53) has every partial sum, in any order, on that
//! grid and within 53 bits of it: exactly representable, so plain `+`
//! ([`grid_add`]) is already exact there (the fixed-point view behind
//! Neal's superaccumulators, arXiv:1505.05571). Whole milliseconds stored
//! as floats are such a column.

/// Number of 64-bit limbs in the accumulator.
pub const LIMBS: usize = 34;

/// An exact sum of `f64` values; merge order never changes the result.
#[derive(Clone, PartialEq)]
pub struct FloatSum {
    /// Two's-complement fixed-point value, little endian; bit 0 = 2^-1074.
    limbs: [u64; LIMBS],
    nan: bool,
    pos_inf: bool,
    neg_inf: bool,
}

impl Default for FloatSum {
    fn default() -> Self {
        FloatSum { limbs: [0; LIMBS], nan: false, pos_inf: false, neg_inf: false }
    }
}

impl std::fmt::Debug for FloatSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("FloatSum").field(&self.value()).finish()
    }
}

impl From<f64> for FloatSum {
    fn from(x: f64) -> Self {
        let mut s = FloatSum::default();
        s.add(x);
        s
    }
}

impl FloatSum {
    pub fn new() -> FloatSum {
        FloatSum::default()
    }

    /// Add one `f64` exactly.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            if x.is_nan() {
                self.nan = true;
            } else if x > 0.0 {
                self.pos_inf = true;
            } else {
                self.neg_inf = true;
            }
            return;
        }
        if x == 0.0 {
            return;
        }
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as usize;
        let frac = bits & ((1u64 << 52) - 1);
        // x = ±mant · 2^(off − 1074) with the mantissa's bit 0 at `off`.
        let (mant, off) = if exp == 0 { (frac, 0) } else { (frac | (1u64 << 52), exp - 1) };
        let limb = off / 64;
        let sh = off % 64;
        let lo = mant << sh;
        let hi = if sh == 0 { 0 } else { mant >> (64 - sh) };
        if x > 0.0 {
            self.add_magnitude(limb, lo, hi);
        } else {
            self.sub_magnitude(limb, lo, hi);
        }
    }

    /// Merge another accumulator in (exact; order never matters).
    pub fn merge(&mut self, other: &FloatSum) {
        let mut carry = 0u64;
        for (a, &b) in self.limbs.iter_mut().zip(&other.limbs) {
            let (v, c1) = a.overflowing_add(b);
            let (v, c2) = v.overflowing_add(carry);
            *a = v;
            carry = (c1 | c2) as u64;
        }
        // The final carry wraps: two's-complement addition.
        self.nan |= other.nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
    }

    /// The exact sum, rounded once to the nearest `f64` (ties to even).
    pub fn value(&self) -> f64 {
        if self.nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        let negative = self.limbs[LIMBS - 1] >> 63 == 1;
        let mut mag = self.limbs;
        if negative {
            negate(&mut mag);
        }
        let Some(top) = (0..LIMBS).rev().find(|&i| mag[i] != 0) else {
            return 0.0;
        };
        let p = top * 64 + (63 - mag[top].leading_zeros() as usize);
        if p <= 52 {
            // At most 53 bits at the 2^-1074 scale: exactly representable
            // (subnormal range and the first normal binades), no rounding.
            let v = mag[0] as f64 * f64::from_bits(1);
            return if negative { -v } else { v };
        }
        // Round the magnitude to 53 significant bits (nearest, ties even).
        let shift = p - 52;
        let mut m = bits_at(&mag, shift) & ((1u64 << 53) - 1);
        let guard = bit_at(&mag, shift - 1);
        if guard && (any_below(&mag, shift - 1) || m & 1 == 1) {
            m += 1;
        }
        let mut p = p;
        if m == 1u64 << 53 {
            m = 1u64 << 52;
            p += 1;
        }
        // value = m · 2^(p − 52 − 1074); `m as f64` is exact (≤ 2^53) and
        // the power-of-two multiply below is exact in range, so the single
        // rounding above is the only rounding.
        let mut v = m as f64;
        let mut e = p as i64 - 52 - 1074;
        while e > 1023 {
            v *= f64::from_bits(0x7FEu64 << 52); // 2^1023
            e -= 1023;
        }
        v *= pow2(e);
        if negative {
            -v
        } else {
            v
        }
    }

    /// True when no value (or only zeros) has been added.
    pub fn is_zero(&self) -> bool {
        !self.nan && !self.pos_inf && !self.neg_inf && self.limbs.iter().all(|&l| l == 0)
    }

    /// Rebuild an accumulator from its raw state: the limb array *is* the
    /// exact sum (two's complement, little endian), and every limb/flag
    /// combination is a valid state, so decoding cannot produce an
    /// inconsistent sum.
    pub fn from_raw_parts(limbs: [u64; LIMBS], nan: bool, pos_inf: bool, neg_inf: bool) -> Self {
        FloatSum { limbs, nan, pos_inf, neg_inf }
    }

    fn add_magnitude(&mut self, limb: usize, lo: u64, hi: u64) {
        let (v, c) = self.limbs[limb].overflowing_add(lo);
        self.limbs[limb] = v;
        let mut idx = limb + 1;
        let (v, c1) = self.limbs[idx].overflowing_add(hi);
        let (v, c2) = v.overflowing_add(c as u64);
        self.limbs[idx] = v;
        let mut carry = c1 | c2;
        idx += 1;
        while carry && idx < LIMBS {
            let (v, c) = self.limbs[idx].overflowing_add(1);
            self.limbs[idx] = v;
            carry = c;
            idx += 1;
        }
    }

    fn sub_magnitude(&mut self, limb: usize, lo: u64, hi: u64) {
        let (v, b) = self.limbs[limb].overflowing_sub(lo);
        self.limbs[limb] = v;
        let mut idx = limb + 1;
        let (v, b1) = self.limbs[idx].overflowing_sub(hi);
        let (v, b2) = v.overflowing_sub(b as u64);
        self.limbs[idx] = v;
        let mut borrow = b1 | b2;
        idx += 1;
        while borrow && idx < LIMBS {
            let (v, b) = self.limbs[idx].overflowing_sub(1);
            self.limbs[idx] = v;
            borrow = b;
            idx += 1;
        }
    }
}

/// Wire format: the fixed 34-limb array followed by the three non-finite
/// flags. Fixed width (no length prefix): the limb count is part of the
/// format, so a truncated frame fails in [`crate::wire::Reader::take`].
impl crate::wire::Encode for FloatSum {
    fn encode(&self, out: &mut Vec<u8>) {
        for limb in &self.limbs {
            out.extend_from_slice(&limb.to_le_bytes());
        }
        out.push(u8::from(self.nan) | u8::from(self.pos_inf) << 1 | u8::from(self.neg_inf) << 2);
    }
}

impl crate::wire::Decode for FloatSum {
    fn decode(r: &mut crate::wire::Reader<'_>) -> crate::Result<FloatSum> {
        let mut limbs = [0u64; LIMBS];
        for limb in &mut limbs {
            *limb = r.u64()?;
        }
        let flags = r.u8()?;
        if flags > 0b111 {
            return Err(crate::Error::Data(format!("wire: invalid FloatSum flags {flags:#x}")));
        }
        Ok(FloatSum::from_raw_parts(limbs, flags & 1 != 0, flags & 2 != 0, flags & 4 != 0))
    }
}

/// The binary grid of a set of `f64`s: the exponent `e` of the lowest set
/// bit over its finite nonzero values, so that every one of them is a
/// multiple of 2^e. Non-finite values are not on any grid; a column keeps
/// them at its dictionary's ends, where [`Grid::sums_exactly`]'s caller
/// sees them. A grid only coarsens as values join it (`e` falls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// `e`; [`Grid::EMPTY`]'s is above every exponent a value can have.
    low: i16,
}

impl Grid {
    /// The grid of no value, or of zeros only.
    pub const EMPTY: Grid = Grid { low: i16::MAX };

    /// The grid of `values`' finite values.
    pub fn of(values: &[f64]) -> Grid {
        values.iter().fold(Grid::EMPTY, |grid, &x| grid.join(Grid::at(x)))
    }

    /// The grid of `x` alone: empty for a zero or a non-finite value.
    fn at(x: f64) -> Grid {
        match odd_and_exponent(x) {
            Some((_, t)) => Grid { low: t as i16 },
            None => Grid::EMPTY,
        }
    }

    /// The grid both grids' values lie on.
    pub fn join(self, other: Grid) -> Grid {
        Grid { low: self.low.min(other.low) }
    }

    /// `e`, if a nonzero value is on the grid.
    pub fn exponent(self) -> Option<i32> {
        (self != Grid::EMPTY).then_some(i32::from(self.low))
    }

    /// Whether plain `+` ([`grid_add`]) sums exactly, in any order and any
    /// grouping, any `rows` values of this grid none of whose magnitudes
    /// passes `max_abs`: whether rows × `max_abs` ≤ 2^(e+53) and 2^(e+53) ≤
    /// 2^1023. Every partial sum is then a multiple of 2^e of magnitude at
    /// most 2^(e+53), which is finite and has at most 53 significant bits.
    /// O(1), exact (integer arithmetic: no product rounds or overflows);
    /// false for a non-finite `max_abs` or one the grid does not hold.
    pub fn sums_exactly(self, rows: u64, max_abs: f64) -> bool {
        if max_abs == 0.0 {
            // Zeros only: every sum is +0.0 from a +0.0 start.
            return true;
        }
        let (Some(e), Some((odd, t))) = (self.exponent(), odd_and_exponent(max_abs)) else {
            return false;
        };
        // max_abs = odd · 2^t = m · 2^e, and m ≤ 2^53 needs t − e ≤ 53.
        if e > 1023 - 53 || t < e || t - e > 53 {
            return false;
        }
        let m = u128::from(odd) << (t - e);
        u128::from(rows).checked_mul(m).is_some_and(|product| product <= 1 << 53)
    }
}

/// `a + b`, which is exact where both are sums of values of one [`Grid`]
/// that admits their rows ([`Grid::sums_exactly`]): the exact sum is then
/// representable, and IEEE addition returns a representable exact sum
/// unrounded. From a `+0.0` start no such sum is ever `-0.0`, as only
/// `-0.0 + -0.0` is, so sums taken in any order agree bit for bit.
#[inline(always)]
pub fn grid_add(a: f64, b: f64) -> f64 {
    a + b
}

/// A finite nonzero `x` as `(odd, t)`: |x| = odd · 2^t with `odd` odd.
fn odd_and_exponent(x: f64) -> Option<(u64, i32)> {
    if !x.is_finite() || x == 0.0 {
        return None;
    }
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    // |x| = mant · 2^q with the mantissa's bit 0 at 2^q.
    let (mant, q) = if exp == 0 { (frac, -1074) } else { (frac | (1u64 << 52), exp - 1075) };
    let zeros = mant.trailing_zeros();
    Some((mant >> zeros, q + zeros as i32))
}

/// 2^e as an exact `f64`, for e in the representable range [-1074, 1023].
fn pow2(e: i64) -> f64 {
    debug_assert!((-1074..=1023).contains(&e));
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1u64 << (e + 1074))
    }
}

/// Two's-complement negation in place.
fn negate(limbs: &mut [u64; LIMBS]) {
    let mut carry = 1u64;
    for l in limbs.iter_mut() {
        let (v, c) = (!*l).overflowing_add(carry);
        *l = v;
        carry = c as u64;
    }
}

/// 64 bits of `mag` starting at bit `pos`.
fn bits_at(mag: &[u64; LIMBS], pos: usize) -> u64 {
    let limb = pos / 64;
    let sh = pos % 64;
    let lo = mag[limb] >> sh;
    let hi = if sh == 0 || limb + 1 >= LIMBS { 0 } else { mag[limb + 1] << (64 - sh) };
    lo | hi
}

fn bit_at(mag: &[u64; LIMBS], pos: usize) -> bool {
    mag[pos / 64] >> (pos % 64) & 1 == 1
}

/// Any set bit strictly below `pos`?
fn any_below(mag: &[u64; LIMBS], pos: usize) -> bool {
    let limb = pos / 64;
    let sh = pos % 64;
    if mag[..limb].iter().any(|&l| l != 0) {
        return true;
    }
    sh > 0 && mag[limb] & ((1u64 << sh) - 1) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn sum_of(values: &[f64]) -> f64 {
        let mut s = FloatSum::new();
        for &v in values {
            s.add(v);
        }
        s.value()
    }

    #[test]
    fn simple_sums_are_exact() {
        assert_eq!(sum_of(&[]), 0.0);
        assert_eq!(sum_of(&[1.5]), 1.5);
        assert_eq!(sum_of(&[1.5, 2.25]), 3.75);
        assert_eq!(sum_of(&[1.0, -1.0]), 0.0);
        assert_eq!(sum_of(&[-2.5, -3.5]), -6.0);
        assert_eq!(sum_of(&[0.1]), 0.1);
        assert_eq!(sum_of(&[f64::MAX]), f64::MAX);
        assert_eq!(sum_of(&[f64::MIN_POSITIVE]), f64::MIN_POSITIVE);
        assert_eq!(sum_of(&[5e-324]), 5e-324); // smallest subnormal
        assert_eq!(sum_of(&[-0.0]), 0.0);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // Naive f64 summation gets this wrong; the exact accumulator
        // recovers the tiny residue.
        assert_eq!(sum_of(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(sum_of(&[1e308, 1e308, -1e308, -1e308]), 0.0);
        assert_eq!(sum_of(&[1.0, 1e-300, -1.0]), 1e-300);
    }

    #[test]
    fn order_never_changes_the_result() {
        let mut rng = Rng::seed_from_u64(0xf5u64);
        for _ in 0..50 {
            let n = rng.range_usize(2, 40);
            let mut values: Vec<f64> = (0..n)
                .map(|_| {
                    let m = rng.range_i64_inclusive(-1_000_000, 1_000_000) as f64;
                    let e = rng.range_i64_inclusive(-80, 80) as i32;
                    m * 2f64.powi(e)
                })
                .collect();
            let forward = sum_of(&values);
            values.reverse();
            assert_eq!(forward.to_bits(), sum_of(&values).to_bits());
            // Shuffle.
            for i in (1..values.len()).rev() {
                values.swap(i, rng.range_usize(0, i + 1));
            }
            assert_eq!(forward.to_bits(), sum_of(&values).to_bits());
        }
    }

    #[test]
    fn merge_equals_flat_accumulation() {
        let mut rng = Rng::seed_from_u64(0xf6u64);
        for _ in 0..50 {
            let n = rng.range_usize(2, 60);
            let values: Vec<f64> =
                (0..n).map(|_| rng.range_i64_inclusive(-500, 500) as f64 * 0.125).collect();
            let flat = sum_of(&values);
            // Split into arbitrary partitions, merge the partials.
            let cut = rng.range_usize(1, n);
            let mut a = FloatSum::new();
            for &v in &values[..cut] {
                a.add(v);
            }
            let mut b = FloatSum::new();
            for &v in &values[cut..] {
                b.add(v);
            }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge is commutative");
            assert_eq!(flat.to_bits(), ab.value().to_bits());
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 10k+ iterations: minutes under the interpreter
    fn rounding_matches_ieee_single_additions() {
        // For two addends, IEEE addition is itself correctly rounded, so
        // the accumulator must agree bit-for-bit.
        let mut rng = Rng::seed_from_u64(0xf7u64);
        for _ in 0..2_000 {
            let a = f64::from_bits(rng.next_u64() & 0x7FEF_FFFF_FFFF_FFFF);
            let b = f64::from_bits(rng.next_u64() & 0x7FEF_FFFF_FFFF_FFFF);
            let (a, b) = (a.abs(), -b.abs());
            if !a.is_finite() || !b.is_finite() {
                continue;
            }
            let expect = a + b;
            assert_eq!(
                sum_of(&[a, b]).to_bits(),
                expect.to_bits(),
                "a={a:e} b={b:e} expect={expect:e} got={:e}",
                sum_of(&[a, b])
            );
        }
    }

    #[test]
    fn ties_round_to_even() {
        // 2^53 + 1 is exactly between 2^53 and 2^53 + 2 → rounds to 2^53.
        let two53 = 9_007_199_254_740_992.0f64;
        assert_eq!(sum_of(&[two53, 1.0]), two53);
        // 2^53 + 3 is between 2^53 + 2 and 2^53 + 4 → rounds to +4 (even).
        assert_eq!(sum_of(&[two53, 1.0, 1.0, 1.0]), two53 + 4.0);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        let v = sum_of(&[f64::MAX, f64::MAX]);
        assert_eq!(v, f64::INFINITY, "exact sum beyond the range rounds to +inf");
        let v = sum_of(&[f64::MIN, f64::MIN]);
        assert_eq!(v, f64::NEG_INFINITY);
        // ... but cancellation brings it back: the accumulator is exact.
        assert_eq!(sum_of(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    }

    #[test]
    fn non_finite_flags_follow_ieee() {
        assert!(sum_of(&[f64::NAN, 1.0]).is_nan());
        assert_eq!(sum_of(&[f64::INFINITY, -1e308]), f64::INFINITY);
        assert_eq!(sum_of(&[f64::NEG_INFINITY, 1e308]), f64::NEG_INFINITY);
        assert!(sum_of(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
    }

    #[test]
    fn grids_are_the_lowest_set_bit_over_finite_values() {
        assert_eq!(Grid::of(&[]), Grid::EMPTY);
        // All zeros, either sign: no grid, and any number of rows sums
        // exactly (to +0.0).
        assert_eq!(Grid::of(&[0.0, -0.0, 0.0]), Grid::EMPTY);
        assert!(Grid::EMPTY.sums_exactly(u64::MAX, 0.0));
        assert!(!Grid::EMPTY.sums_exactly(1, 1.0), "a value the grid does not hold");
        // -0.0 beside other values changes nothing; signs do not count.
        assert_eq!(Grid::of(&[-0.0, 3.0, -12.0]).exponent(), Some(0));
        assert_eq!(Grid::of(&[1.5, 0.25, 1024.0]).exponent(), Some(-2));
        assert_eq!(Grid::of(&[0.1]).exponent(), Some(-55), "0.1's last set mantissa bit");
        // Non-finite values are on no grid: the dictionary's ends show them.
        assert_eq!(Grid::of(&[f64::NAN, f64::INFINITY, 8.0]).exponent(), Some(3));
        assert!(!Grid::of(&[8.0]).sums_exactly(1, f64::INFINITY));
        assert!(!Grid::of(&[8.0]).sums_exactly(1, f64::NAN));
        // Subnormals: the smallest one is 2^-1074.
        let tiny = f64::from_bits(1);
        assert_eq!(Grid::of(&[tiny]).exponent(), Some(-1074));
        assert_eq!(Grid::of(&[3.0 * tiny, 1.0]).exponent(), Some(-1074));
        assert_eq!(Grid::of(&[f64::MIN_POSITIVE]).exponent(), Some(-1022));
        assert_eq!(Grid::of(&[1.0]).join(Grid::of(&[0.5])), Grid::of(&[0.5, 1.0]));
    }

    #[test]
    fn grid_sums_are_exact_up_to_the_bound_and_not_past_it() {
        let two = |e: i64| pow2(e);
        // Integers, max 2^20: 2^33 rows reach 2^53 exactly; one more passes it.
        let ints = Grid::of(&[1.0, two(20)]);
        assert!(ints.sums_exactly(1 << 33, two(20)));
        assert!(!ints.sums_exactly((1 << 33) + 1, two(20)));
        // One binade past it: the same rows of values up to 2^21.
        assert!(!Grid::of(&[1.0, two(21)]).sums_exactly(1 << 33, two(21)));
        // An odd max on a grid of 2^-4: rows × 3 · 2^-4 ≤ 2^49.
        let sixteenths = Grid::of(&[two(-4), 3.0 * two(-4)]);
        assert!(sixteenths.sums_exactly(1 << 53, two(-4)));
        assert!(!sixteenths.sums_exactly(1 << 53, 3.0 * two(-4)));
        assert!(sixteenths.sums_exactly((1 << 53) / 3, 3.0 * two(-4)));
        assert!(!sixteenths.sums_exactly((1 << 53) / 3 + 1, 3.0 * two(-4)));
        // Subnormal multiples: 2^-1074 · 2^53 is still exact.
        let tiny = f64::from_bits(1);
        assert!(Grid::of(&[tiny]).sums_exactly(1 << 53, tiny));
        assert!(!Grid::of(&[tiny]).sums_exactly((1 << 53) + 1, tiny));
        // A product that overflows: f64 would round rows × max to ∞, and a
        // u128 would wrap; neither is admitted.
        assert!((1e300 * 1e10f64).is_infinite());
        assert!(!Grid::of(&[1.0, 1e300]).sums_exactly(10_000_000_000, 1e300));
        assert!(!Grid::of(&[1.0, two(53)]).sums_exactly(u64::MAX, two(53)));
        assert!(Grid::of(&[1.0, two(53)]).sums_exactly(1, two(53)));
        // A grid so coarse that 2^(e+53) is past 2^1023: one row of f64::MAX
        // would fit, but two overflow.
        assert!(!Grid::of(&[f64::MAX]).sums_exactly(2, f64::MAX));
        assert!(Grid::of(&[two(970)]).sums_exactly(1 << 53, two(970)));
        assert!(!Grid::of(&[two(971)]).sums_exactly(1, two(971)));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 10k+ iterations: minutes under the interpreter
    fn grid_adds_equal_exact_sums_in_every_order() {
        let mut rng = Rng::seed_from_u64(0xf8u64);
        for _ in 0..200 {
            let e = rng.range_i64_inclusive(-1074, 900);
            let n = rng.range_usize(1, 60);
            let values: Vec<f64> = (0..n)
                .map(|_| rng.range_i64_inclusive(-(1 << 40), 1 << 40) as f64 * pow2(e))
                .collect();
            let max_abs = values.iter().fold(0f64, |m, x| m.max(x.abs()));
            if !Grid::of(&values).sums_exactly(n as u64, max_abs) {
                continue;
            }
            let mut forward = 0.0;
            values.iter().for_each(|&x| forward = grid_add(forward, x));
            let backward = values.iter().rev().fold(0.0, |s, &x| grid_add(s, x));
            assert_eq!(forward.to_bits(), sum_of(&values).to_bits(), "e={e}");
            assert_eq!(backward.to_bits(), forward.to_bits(), "e={e}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 10k+ iterations: minutes under the interpreter
    fn subnormal_accumulation_is_exact() {
        let tiny = 5e-324; // 2^-1074
        let mut s = FloatSum::new();
        for _ in 0..4096 {
            s.add(tiny);
        }
        assert_eq!(s.value(), tiny * 4096.0);
        for _ in 0..4096 {
            s.add(-tiny);
        }
        assert_eq!(s.value(), 0.0);
        assert!(s.is_zero());
    }
}
