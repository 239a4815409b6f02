//! Approximate count distinct: the m-smallest-hashes (KMV) sketch of §5.
//!
//! *"The basic idea of the algorithm is to compute hash values of the field
//! to count distinctly. Of these hashes, the m smallest are determined in a
//! single pass. The threshold m is given by the user and is typically in
//! the order of a couple of thousand. The largest of these m hashes, say v,
//! can be used to approximate the count distinct results by m/v, assuming
//! that the hash values are normalized to be in [0, 1]."*
//!
//! (Flajolet–Martin \[14\] lineage; the variant analyzed as the first
//! algorithm of Bar-Yossef et al. \[6\].)
//!
//! A sketch is an ascending `Vec<u64>` of at most `m` distinct hashes. A
//! scan builds a group's sketch from a chunk's hashes (one per distinct
//! value), and the wire decoder from a frame's hash list, by sort, dedup
//! and truncate ([`KmvSketch::from_parts`]); folds and tree levels merge
//! sketches as sorted runs ([`KmvSketch::merge`]).

/// A K-Minimum-Values sketch over 64-bit hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmvSketch {
    m: usize,
    /// The (at most `m`) smallest distinct hashes seen, ascending.
    smallest: Vec<u64>,
}

impl KmvSketch {
    /// Sketch keeping the `m` smallest hashes (`m >= 1`).
    pub fn new(m: usize) -> KmvSketch {
        KmvSketch { m: m.max(1), smallest: Vec::new() }
    }

    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of hashes currently held.
    pub fn len(&self) -> usize {
        self.smallest.len()
    }

    pub fn is_empty(&self) -> bool {
        self.smallest.is_empty()
    }

    /// The distinct-count estimate. Exact while fewer than `m` distinct
    /// hashes were seen; `m / v` (v = largest kept hash, normalized) once
    /// saturated.
    pub fn estimate(&self) -> f64 {
        if self.smallest.len() < self.m {
            return self.smallest.len() as f64;
        }
        let v = *self.smallest.last().expect("saturated") as f64;
        let normalized = v / (u64::MAX as f64);
        if normalized <= 0.0 {
            return self.smallest.len() as f64;
        }
        self.m as f64 / normalized
    }

    /// Merge another sketch into this one (distributed execution: sketches
    /// travel up the §4 computation tree instead of per-level counts, which
    /// would over-count): one walk over the two ascending runs, stopped at
    /// `m` hashes.
    pub fn merge(&mut self, other: &KmvSketch) {
        let (a, b) = (&self.smallest, &other.smallest);
        let mut merged = Vec::with_capacity((a.len() + b.len()).min(self.m));
        let (mut i, mut j) = (0, 0);
        while merged.len() < self.m {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) => x.min(y),
                (Some(&x), None) | (None, Some(&x)) => x,
                (None, None) => break,
            };
            i += (a.get(i) == Some(&next)) as usize;
            j += (b.get(j) == Some(&next)) as usize;
            merged.push(next);
        }
        self.smallest = merged;
    }

    /// The retained hashes in ascending order — the sketch's entire state
    /// besides `m`, which is how it crosses the §4 process boundary.
    pub fn hashes(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.smallest.iter().copied()
    }

    /// The sketch of `hashes` at threshold `m` — what offering them one by
    /// one keeps, by one sort, dedup and truncate (the excess capacity
    /// released) — so even a corrupt hash list makes a *valid* sketch
    /// (possibly of different estimate — corruption detection is the frame
    /// layer's job).
    pub fn from_parts(m: usize, hashes: impl IntoIterator<Item = u64>) -> KmvSketch {
        let m = m.max(1);
        let mut smallest: Vec<u64> = hashes.into_iter().collect();
        smallest.sort_unstable();
        smallest.dedup();
        smallest.truncate(m);
        smallest.shrink_to_fit();
        KmvSketch { m, smallest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::fx_hash64;

    impl KmvSketch {
        /// Offer one hash value: rejected in O(1) when the sketch is full
        /// and `hash` is not below its largest, else inserted at its rank —
        /// the row-at-a-time definition [`KmvSketch::from_parts`] and
        /// [`KmvSketch::merge`] are held to.
        fn offer(&mut self, hash: u64) {
            if self.smallest.len() == self.m && hash >= self.smallest[self.m - 1] {
                return;
            }
            if let Err(at) = self.smallest.binary_search(&hash) {
                self.smallest.insert(at, hash);
                self.smallest.truncate(self.m);
            }
        }
    }

    fn sketch_of(values: impl Iterator<Item = u64>, m: usize) -> KmvSketch {
        let mut s = KmvSketch::new(m);
        for v in values {
            s.offer(fx_hash64(&v));
        }
        s
    }

    /// The sketch offering `hashes` one by one gives.
    fn offered(m: usize, hashes: &[u64]) -> KmvSketch {
        let mut s = KmvSketch::new(m);
        hashes.iter().for_each(|&h| s.offer(h));
        s
    }

    #[test]
    fn exact_below_m() {
        let s = sketch_of(0..100u64, 1024);
        assert_eq!(s.estimate(), 100.0);
        let empty = KmvSketch::new(16);
        assert_eq!(empty.estimate(), 0.0);
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = KmvSketch::new(64);
        for _ in 0..10 {
            for v in 0..40u64 {
                s.offer(fx_hash64(&v));
            }
        }
        assert_eq!(s.estimate(), 40.0);
    }

    #[test]
    fn estimate_within_tolerance_when_saturated() {
        for &(n, m) in &[(10_000u64, 1024usize), (100_000, 2048), (50_000, 512)] {
            let s = sketch_of(0..n, m);
            let est = s.estimate();
            let err = (est - n as f64).abs() / n as f64;
            // KMV standard error ≈ 1/√m; allow 5 sigma.
            let tolerance = 5.0 / (m as f64).sqrt();
            assert!(err < tolerance, "n={n} m={m}: estimate {est}, err {err:.4}");
        }
    }

    #[test]
    fn merge_equals_union() {
        let a = sketch_of(0..30_000u64, 512);
        let b = sketch_of(15_000..45_000u64, 512);
        let mut merged = a.clone();
        merged.merge(&b);
        let direct = sketch_of(0..45_000u64, 512);
        assert_eq!(merged, direct, "merge must equal the sketch of the union");
    }

    #[test]
    fn merge_is_commutative() {
        let a = sketch_of((0..5000u64).map(|x| x * 3), 256);
        let b = sketch_of((0..5000u64).map(|x| x * 7), 256);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_equals_offering_the_other_sketchs_hashes() {
        let hashes = |range: std::ops::Range<u64>| -> Vec<u64> { range.map(|v| v * 5).collect() };
        let cases = [
            ("both unsaturated", 64, hashes(0..10), hashes(20..30)),
            ("both saturated", 8, hashes(0..40), hashes(3..50)),
            ("overlapping", 16, hashes(0..12), hashes(6..14)),
            ("m = 1", 1, hashes(4..9), hashes(2..3)),
            ("left side empty", 8, Vec::new(), hashes(0..20)),
            ("right side empty", 8, hashes(0..20), Vec::new()),
        ];
        for (what, m, left, right) in cases {
            let (a, b) = (offered(m, &left), offered(m, &right));
            let mut merged = a.clone();
            merged.merge(&b);
            let mut want = a;
            b.hashes().for_each(|h| want.offer(h));
            assert_eq!(merged, want, "{what}");
            assert!(merged.hashes().is_sorted() && merged.len() <= m, "{what}");
        }
    }

    #[test]
    fn from_parts_equals_offering_the_list() {
        let lists: [(&str, &[u64]); 5] = [
            ("unsorted", &[9, 2, 7, 4]),
            ("duplicated", &[3, 3, 1, 3, 1]),
            ("longer than m", &[12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1]),
            ("all three", &[7, 7, 1, 9, 4, 1, 12, 2, 2, 30, 0]),
            ("empty", &[]),
        ];
        for (what, list) in lists {
            for m in [1, 3, 4, 64] {
                assert_eq!(
                    KmvSketch::from_parts(m, list.to_vec()),
                    offered(m, list),
                    "{what} m={m}"
                );
            }
        }
        assert_eq!(KmvSketch::from_parts(0, [5, 1]), offered(1, &[1]), "m is at least 1");
        // A long list leaves no capacity beyond the `m` hashes kept.
        let s = KmvSketch::from_parts(64, (0..50_000u64).rev());
        assert_eq!((s.len(), s.smallest.capacity()), (64, 64));
    }

    #[test]
    fn offering_a_hash_not_below_the_largest_of_a_full_sketch_changes_nothing() {
        let full = offered(4, &[40, 10, 30, 20]);
        for h in [40, 41, u64::MAX] {
            let mut s = full.clone();
            s.offer(h);
            assert_eq!(s, full, "offer({h})");
        }
        let mut s = full.clone();
        s.offer(25);
        assert_eq!(s.hashes().collect::<Vec<_>>(), [10, 20, 25, 30]);
    }

    #[test]
    fn m_one_still_works() {
        let s = sketch_of(0..1000u64, 1);
        assert!(s.estimate() > 0.0);
    }
}
