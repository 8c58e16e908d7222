//! Bloom filters (paper Section 6, design of Polychroniou & Ross \[27\]).
//!
//! Bloom filters implement semi-joins: a tuple qualifies if `k` specific
//! bits, chosen by `k` hash functions, are all set. Most non-qualifying
//! tuples fail after one or two bit tests, so *early abort* is essential —
//! and is exactly what makes scalar code branchy and horizontal
//! vectorization wasteful.
//!
//! The vectorized probe processes a **different key per lane** and keeps a
//! per-lane *function counter*: each iteration tests one bit per lane;
//! lanes that fail a test or complete all `k` tests are recycled via
//! selective loads, so every lane does useful work every iteration.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod diff;

use rsv_simd::{MaskLike, Simd};

/// Maximum vector width any backend exposes (for stack lane buffers).
const MAX_LANES: usize = 32;

/// Maximum number of hash functions.
pub const MAX_FUNCTIONS: usize = 8;

/// A blocked-free (classic, bit-per-hash) Bloom filter over 32-bit keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    words: Vec<u32>,
    nbits: u32,
    factors: Vec<u32>,
    k: usize,
}

impl BloomFilter {
    /// A filter sized for `items` keys at `bits_per_item` bits each (the
    /// paper uses 10), probing with `k` hash functions (the paper uses 5).
    pub fn new(items: usize, bits_per_item: usize, k: usize) -> Self {
        assert!(
            (1..=MAX_FUNCTIONS).contains(&k),
            "1..={MAX_FUNCTIONS} hash functions supported"
        );
        let nbits = 8 * Self::size_bytes_for(items, bits_per_item);
        assert!(
            nbits <= u32::MAX as usize,
            "filter too large for 32-bit bit indexes"
        );
        const SEEDS: [u32; MAX_FUNCTIONS] = [
            0x9E37_79B1,
            0x85EB_CA77,
            0xC2B2_AE3D,
            0x27D4_EB2F,
            0x1656_67B1,
            0x2545_F491,
            0x9E6D_62D1,
            0x7FEB_352D,
        ];
        BloomFilter {
            words: vec![0u32; nbits / 32],
            nbits: nbits as u32,
            factors: SEEDS[..k].to_vec(),
            k,
        }
    }

    /// Number of hash functions.
    pub fn functions(&self) -> usize {
        self.k
    }

    /// Size of the bit array in bytes (the paper's x-axis in Figure 10).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// [`BloomFilter::size_bytes`] of `BloomFilter::new(items,
    /// bits_per_item, _)`, known before allocating it.
    pub fn size_bytes_for(items: usize, bits_per_item: usize) -> usize {
        (items.max(1) * bits_per_item).next_multiple_of(32).max(64) / 8
    }

    /// Set every bit that is set in `other` (a filter of the same shape),
    /// so keys inserted into either test positive. Filters built over
    /// disjoint chunks of a key column and merged this way hold exactly
    /// the words of one filter built over the whole column.
    pub fn union_with(&mut self, other: &BloomFilter) {
        assert!(
            self.nbits == other.nbits && self.factors == other.factors,
            "union of differently shaped Bloom filters"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The `j`-th bit position for `key`: multiplicative hash into `[0, nbits)`.
    #[inline(always)]
    fn bit(&self, key: u32, j: usize) -> u32 {
        ((u64::from(key.wrapping_mul(self.factors[j])) * u64::from(self.nbits)) >> 32) as u32
    }

    /// Insert one key.
    pub fn insert(&mut self, key: u32) {
        for j in 0..self.k {
            let b = self.bit(key, j);
            self.words[(b >> 5) as usize] |= 1 << (b & 31);
        }
    }

    /// Build from a key column.
    pub fn build(&mut self, keys: &[u32]) {
        for &k in keys {
            self.insert(k);
        }
    }

    /// Membership test for one key (early abort on the first unset bit).
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        let mut touched = 0u64;
        let mut hit = true;
        for j in 0..self.k {
            let b = self.bit(key, j);
            touched += 1;
            if self.words[(b >> 5) as usize] & (1 << (b & 31)) == 0 {
                hit = false;
                break;
            }
        }
        rsv_metrics::count(rsv_metrics::Metric::BloomWordsTouched, touched);
        hit
    }

    /// Scalar probe: write qualifying keys/payloads to the output fronts,
    /// returning the qualifier count.
    pub fn probe_scalar(
        &self,
        keys: &[u32],
        pays: &[u32],
        out_keys: &mut [u32],
        out_pays: &mut [u32],
    ) -> usize {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        rsv_metrics::count(rsv_metrics::Metric::BloomKeysProbed, keys.len() as u64);
        let mut j = 0;
        for (&k, &p) in keys.iter().zip(pays) {
            if self.contains(k) {
                out_keys[j] = k;
                out_pays[j] = p;
                j += 1;
            }
        }
        j
    }

    /// Vertically vectorized probe \[27\]: a different key per lane with a
    /// per-lane hash-function counter; finished lanes (first failed bit or
    /// all `k` bits passed) are selectively reloaded. The output order is
    /// not the input order.
    pub fn probe_vector<S: Simd>(
        &self,
        s: S,
        keys: &[u32],
        pays: &[u32],
        out_keys: &mut [u32],
        out_pays: &mut [u32],
    ) -> usize {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        s.vectorize(
            #[inline(always)]
            || self.probe_vector_impl(s, keys, pays, out_keys, out_pays),
        )
    }

    #[inline(always)]
    fn probe_vector_impl<S: Simd>(
        &self,
        s: S,
        keys: &[u32],
        pays: &[u32],
        out_keys: &mut [u32],
        out_pays: &mut [u32],
    ) -> usize {
        let w = S::LANES;
        let n = keys.len();
        rsv_metrics::count(rsv_metrics::Metric::BloomKeysProbed, n as u64);
        let mut touched = 0u64;
        let nbits = s.splat(self.nbits);
        let kfun = s.splat(self.k as u32);
        let one = s.splat(1);
        let b31 = s.splat(31);
        let mut factors_padded = [0u32; MAX_FUNCTIONS];
        factors_padded[..self.k].copy_from_slice(&self.factors);
        let mut k = s.zero();
        let mut v = s.zero();
        let mut fj = s.zero(); // per-lane function counter
        let mut m = S::M::all(); // lanes to reload
        let mut out = 0usize;
        let mut i = 0usize;
        while i + w <= n {
            k = s.selective_load(k, m, &keys[i..]);
            v = s.selective_load(v, m, &pays[i..]);
            fj = s.blend(m, s.zero(), fj);
            i += m.count();
            // bit index of each lane's current function
            let f = s.gather(&factors_padded, fj);
            let b = s.mulhi(s.mullo(k, f), nbits);
            let word = s.gather(&self.words, s.shr(b, 5));
            touched += w as u64;
            let bit = s.and(s.shrv(word, s.and(b, b31)), one);
            let pass = s.cmpeq(bit, one);
            fj = s.blend(pass, s.add(fj, one), fj);
            let qualified = pass.and(s.cmpeq(fj, kfun));
            if qualified.any() {
                s.selective_store(&mut out_keys[out..], qualified, k);
                out += s.selective_store(&mut out_pays[out..], qualified, v);
            }
            m = pass.not().or(qualified);
        }
        // Drain in-flight lanes, then the tail, with scalar code.
        let mut ka = [0u32; MAX_LANES];
        let mut va = [0u32; MAX_LANES];
        let mut ja = [0u32; MAX_LANES];
        s.store(k, &mut ka[..w]);
        s.store(v, &mut va[..w]);
        s.store(fj, &mut ja[..w]);
        for lane in m.not().iter_set() {
            let key = ka[lane];
            let mut ok = true;
            for j in ja[lane] as usize..self.k {
                let b = self.bit(key, j);
                touched += 1;
                if self.words[(b >> 5) as usize] & (1 << (b & 31)) == 0 {
                    ok = false;
                    break;
                }
            }
            if ok {
                out_keys[out] = key;
                out_pays[out] = va[lane];
                out += 1;
            }
        }
        rsv_metrics::count(rsv_metrics::Metric::BloomWordsTouched, touched);
        for idx in i..n {
            if self.contains(keys[idx]) {
                out_keys[out] = keys[idx];
                out_pays[out] = pays[idx];
                out += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsv_simd::Portable;

    #[test]
    fn no_false_negatives() {
        let mut rng = rsv_data::rng(51);
        let keys = rsv_data::unique_u32(10_000, &mut rng);
        let mut f = BloomFilter::new(keys.len(), 10, 5);
        f.build(&keys);
        assert!(keys.iter().all(|&k| f.contains(k)));
    }

    #[test]
    fn false_positive_rate_close_to_theory() {
        let mut rng = rsv_data::rng(52);
        let all = rsv_data::unique_u32(40_000, &mut rng);
        let (inside, outside) = all.split_at(20_000);
        let mut f = BloomFilter::new(inside.len(), 10, 5);
        f.build(inside);
        let fp = outside.iter().filter(|&&k| f.contains(k)).count();
        let rate = fp as f64 / outside.len() as f64;
        // theory: (1 - e^{-k/10})^k ≈ 0.9% for k=5, 10 bits/item
        assert!(rate < 0.05, "false positive rate too high: {rate}");
    }

    #[test]
    fn vector_probe_matches_scalar_multiset() {
        let s = Portable::<16>::new();
        let mut rng = rsv_data::rng(53);
        let all = rsv_data::unique_u32(4000, &mut rng);
        let (inside, outside) = all.split_at(1000);
        let mut f = BloomFilter::new(inside.len(), 10, 5);
        f.build(inside);

        // probe stream: 5%-ish hits (paper's Figure 10 selectivity)
        let keys: Vec<u32> = (0..3000)
            .map(|i| {
                if i % 20 == 0 {
                    inside[i % inside.len()]
                } else {
                    outside[i % outside.len()]
                }
            })
            .collect();
        let pays: Vec<u32> = (0..3000).collect();

        let mut sk = vec![0u32; keys.len()];
        let mut sp = vec![0u32; keys.len()];
        let ns = f.probe_scalar(&keys, &pays, &mut sk, &mut sp);

        let mut vk = vec![0u32; keys.len()];
        let mut vp = vec![0u32; keys.len()];
        let nv = f.probe_vector(s, &keys, &pays, &mut vk, &mut vp);

        assert_eq!(ns, nv);
        let a = rsv_data::multiset_fingerprint(sk[..ns].iter().zip(&sp[..ns]));
        let b = rsv_data::multiset_fingerprint(vk[..nv].iter().zip(&vp[..nv]));
        assert_eq!(a, b);
    }

    #[test]
    fn small_inputs_and_tails() {
        let s = Portable::<16>::new();
        let mut f = BloomFilter::new(10, 10, 3);
        f.build(&[1, 2, 3]);
        for n in [0usize, 1, 15, 16, 17, 31] {
            let keys: Vec<u32> = (0..n as u32).collect();
            let pays: Vec<u32> = (100..100 + n as u32).collect();
            let mut sk = vec![0u32; n];
            let mut sp = vec![0u32; n];
            let ns = f.probe_scalar(&keys, &pays, &mut sk, &mut sp);
            let mut vk = vec![0u32; n];
            let mut vp = vec![0u32; n];
            let nv = f.probe_vector(s, &keys, &pays, &mut vk, &mut vp);
            assert_eq!(ns, nv, "n={n}");
            let a = rsv_data::multiset_fingerprint(sk[..ns].iter().zip(&sp[..ns]));
            let b = rsv_data::multiset_fingerprint(vk[..nv].iter().zip(&vp[..nv]));
            assert_eq!(a, b, "n={n}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_match() {
        let mut rng = rsv_data::rng(54);
        let keys = rsv_data::unique_u32(5000, &mut rng);
        let pays: Vec<u32> = (0..5000).collect();
        let mut f = BloomFilter::new(1000, 10, 5);
        f.build(&keys[..1000]);
        let mut sk = vec![0u32; keys.len()];
        let mut sp = vec![0u32; keys.len()];
        let ns = f.probe_scalar(&keys, &pays, &mut sk, &mut sp);
        let expected = rsv_data::multiset_fingerprint(sk[..ns].iter().zip(&sp[..ns]));
        if let Some(s) = rsv_simd::Avx512::new() {
            let mut vk = vec![0u32; keys.len()];
            let mut vp = vec![0u32; keys.len()];
            let nv = f.probe_vector(s, &keys, &pays, &mut vk, &mut vp);
            assert_eq!(ns, nv);
            assert_eq!(
                expected,
                rsv_data::multiset_fingerprint(vk[..nv].iter().zip(&vp[..nv]))
            );
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            let mut vk = vec![0u32; keys.len()];
            let mut vp = vec![0u32; keys.len()];
            let nv = f.probe_vector(s, &keys, &pays, &mut vk, &mut vp);
            assert_eq!(ns, nv);
            assert_eq!(
                expected,
                rsv_data::multiset_fingerprint(vk[..nv].iter().zip(&vp[..nv]))
            );
        }
    }

    #[test]
    fn union_of_chunk_filters_equals_one_build() {
        let keys = rsv_data::unique_u32(3_000, &mut rsv_data::rng(55));
        let mut whole = BloomFilter::new(keys.len(), 10, 5);
        whole.build(&keys);
        let mut merged = BloomFilter::new(keys.len(), 10, 5);
        for chunk in keys.chunks(700) {
            let mut part = BloomFilter::new(keys.len(), 10, 5);
            part.build(chunk);
            merged.union_with(&part);
        }
        assert_eq!(merged, whole);
        assert_eq!(whole.size_bytes(), BloomFilter::size_bytes_for(3_000, 10));
    }

    #[test]
    #[should_panic(expected = "hash functions supported")]
    fn too_many_functions_panics() {
        let _ = BloomFilter::new(10, 10, 9);
    }
}
