//! Order statistics and hashing the benchmark owns (so an engine change
//! cannot move how a number is summarized).

/// A percentile is reported only when at least this many samples lie
/// beyond it: below that, the "p90" of a run is one outlier's latency.
pub const SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank `⌈p·n⌉`, clamped into `1..=n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Does a sample of `n` keep [`SAMPLES_BEYOND`] values above its `p`
/// percentile? (p90 needs 100 samples, p95 needs 200; a median needs 20.)
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= SAMPLES_BEYOND
}

/// Sorts a copy and takes the nearest-rank percentile; 0 for no samples
/// (a layer that never ran).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p).unwrap_or(0.0)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, 0 when the denominator is 0 (an idle layer has no ratio).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a, 64 bit: the input and answer fingerprints.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed string, so `("ab","c")` and `("a","bc")` differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv_str(s: &str) -> u64 {
    let mut h = Fnv::default();
    h.str(s);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&v, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 0.95), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn percentile_sorts_first() {
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), 5.0);
        assert_eq!(median(&[4.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn guard_wants_ten_samples_beyond() {
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn fnv_is_stable_and_length_prefixed() {
        // The published FNV-1a test vector for "a".
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut ab_c = Fnv::default();
        ab_c.str("ab");
        ab_c.str("c");
        let mut a_bc = Fnv::default();
        a_bc.str("a");
        a_bc.str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
        assert_eq!(fnv_str("click"), fnv_str("click"));
    }
}
