//! Vectorized group-by aggregation (paper §5: "in group-by aggregation
//! [hash tables] are used either to map tuples to unique group ids or to
//! insert and update partial aggregates").
//!
//! [`GroupAggTable`] maintains per-group `COUNT(*)` and a 64-bit
//! `SUM(value)` in an open-addressing table with linear probing. The
//! vertical vectorized update path processes a different input tuple per
//! lane; lanes that would read-modify-write the same bucket in one vector
//! are *deferred* to the next iteration (the same first-occurrence rule the
//! paper's unstable hash shuffling uses), so no increment is ever lost.
//!
//! Every `u32` is a legal group key. The table's empty-bucket marker
//! [`EMPTY_KEY`] never enters the bucket array: rows with that key are
//! folded into a scalar side aggregate (one `cmpeq` per vector on the
//! vectorized path), which [`GroupAggTable::iter`] and
//! [`GroupAggTable::write_columns`] report like any other group.

use rsv_simd::{MaskLike, Simd};

use crate::{bucket_count, MulHash, EMPTY_KEY};

/// Maximum vector width any backend exposes (for stack lane buffers).
const MAX_LANES: usize = 32;

/// The error returned by [`GroupAggTable::try_update`] when inserting a
/// new group would saturate the table (no empty bucket would remain, so a
/// later probe for a missing key could never terminate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggTableFull;

impl std::fmt::Display for AggTableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "aggregation table is full")
    }
}

impl std::error::Error for AggTableFull {}

/// An aggregation hash table: per group key, `COUNT(*)` and `SUM(value)`.
///
/// Keys live in their own array; counts and 64-bit sums are stored as two
/// parallel 32-bit arrays (`sum_lo`, `sum_hi`) so the vectorized path can
/// do the 64-bit addition with 32-bit lanes and an explicit carry.
///
/// # Saturation
///
/// Linear probing needs at least one empty bucket to terminate a probe
/// for a missing key, so the table never fills past `buckets − 1` groups.
/// [`GroupAggTable::update`] (and the vectorized kernel) *grow* the table
/// — doubling the bucket array and rehashing — before that point is
/// reached; [`GroupAggTable::try_update`] instead reports saturation as
/// [`AggTableFull`] for callers that sized the table deliberately.
#[derive(Debug, Clone)]
pub struct GroupAggTable {
    keys: Vec<u32>,
    counts: Vec<u32>,
    sum_lo: Vec<u32>,
    sum_hi: Vec<u32>,
    hash: MulHash,
    /// Groups stored in the bucket array (excludes `sentinel`).
    groups: usize,
    /// `(count, sum)` of the [`EMPTY_KEY`] group, kept outside the
    /// buckets because that key marks a bucket as empty.
    sentinel: Option<(u32, u64)>,
}

impl GroupAggTable {
    /// A table for up to `capacity` distinct groups at `load_factor`
    /// occupancy.
    pub fn new(capacity: usize, load_factor: f64) -> Self {
        let buckets = bucket_count(capacity, load_factor);
        GroupAggTable {
            keys: vec![EMPTY_KEY; buckets],
            counts: vec![0; buckets],
            sum_lo: vec![0; buckets],
            sum_hi: vec![0; buckets],
            hash: MulHash::nth(0),
            groups: 0,
            sentinel: None,
        }
    }

    /// Bytes [`GroupAggTable::new`] allocates for `capacity` groups at
    /// `load_factor` (16 per bucket), for budgeting before construction.
    pub fn initial_bytes(capacity: usize, load_factor: f64) -> u64 {
        16 * bucket_count(capacity, load_factor) as u64
    }

    /// Number of distinct groups seen so far.
    pub fn groups(&self) -> usize {
        self.groups + usize::from(self.sentinel.is_some())
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.keys.len()
    }

    /// Update one tuple with scalar code, growing the table if a new
    /// group would otherwise saturate it.
    pub fn update(&mut self, key: u32, value: u32) {
        while self.try_update(key, value).is_err() {
            self.grow();
        }
    }

    /// Update one tuple, refusing (rather than growing) when a new group
    /// would leave no empty bucket.
    ///
    /// The probe loop always terminates: the table keeps the invariant
    /// `groups ≤ buckets − 1` (at least one empty bucket), and a probe
    /// that would break it returns [`AggTableFull`] *before* inserting.
    ///
    /// # Errors
    /// [`AggTableFull`] if `key` is a new group and `groups + 1` would
    /// reach the bucket count. Existing groups always update, and so does
    /// the [`EMPTY_KEY`] group, which lives outside the buckets.
    pub fn try_update(&mut self, key: u32, value: u32) -> Result<(), AggTableFull> {
        if key == EMPTY_KEY {
            self.update_sentinel(value);
            return Ok(());
        }
        let t = self.keys.len();
        let mut h = self.hash.bucket(key, t);
        loop {
            let k = self.keys[h];
            if k == key {
                break;
            }
            if k == EMPTY_KEY {
                if self.groups + 1 >= t {
                    return Err(AggTableFull);
                }
                self.keys[h] = key;
                self.groups += 1;
                break;
            }
            h += 1;
            if h == t {
                h = 0;
            }
        }
        self.counts[h] += 1;
        let (lo, carry) = self.sum_lo[h].overflowing_add(value);
        self.sum_lo[h] = lo;
        self.sum_hi[h] += u32::from(carry);
        Ok(())
    }

    fn update_sentinel(&mut self, value: u32) {
        let (c, sum) = self.sentinel.get_or_insert((0, 0));
        *c += 1;
        *sum += u64::from(value);
    }

    /// Double the bucket array and rehash every group (the sentinel
    /// group stays in its side aggregate).
    fn grow(&mut self) {
        let new_buckets = (self.keys.len() * 2).max(4);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_buckets]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; new_buckets]);
        let old_lo = std::mem::replace(&mut self.sum_lo, vec![0; new_buckets]);
        let old_hi = std::mem::replace(&mut self.sum_hi, vec![0; new_buckets]);
        for (i, &k) in old_keys.iter().enumerate() {
            if k == EMPTY_KEY {
                continue;
            }
            let mut h = self.hash.bucket(k, new_buckets);
            while self.keys[h] != EMPTY_KEY {
                h += 1;
                if h == new_buckets {
                    h = 0;
                }
            }
            self.keys[h] = k;
            self.counts[h] = old_counts[i];
            self.sum_lo[h] = old_lo[i];
            self.sum_hi[h] = old_hi[i];
        }
    }

    /// Aggregate whole columns with scalar code.
    pub fn update_scalar(&mut self, keys: &[u32], values: &[u32]) {
        assert_eq!(keys.len(), values.len(), "column length mismatch");
        for (&k, &v) in keys.iter().zip(values) {
            self.update(k, v);
        }
    }

    /// Aggregate whole columns with the vertical vectorized kernel.
    ///
    /// Per iteration: hash a vector of keys, gather their buckets, insert
    /// new groups (with the Algorithm 7 scatter/gather-back conflict
    /// check), and read-modify-write count and sum for the lanes that are
    /// the *first* occurrence of their bucket in this vector; all other
    /// lanes retry next iteration.
    pub fn update_vector<S: Simd>(&mut self, s: S, keys: &[u32], values: &[u32]) {
        assert_eq!(keys.len(), values.len(), "column length mismatch");
        s.vectorize(
            #[inline(always)]
            || self.update_vector_impl(s, keys, values),
        );
    }

    fn update_vector_impl<S: Simd>(&mut self, s: S, keys: &[u32], values: &[u32]) {
        let w = S::LANES;
        let n = keys.len();
        let mut t = self.keys.len();
        let f = s.splat(self.hash.factor());
        let mut tn = s.splat(t as u32);
        let empty = s.splat(EMPTY_KEY);
        let one = s.splat(1);
        let lane_ids = s.iota();
        let mut k = s.zero();
        let mut v = s.zero();
        let mut o = s.zero();
        let mut m = S::M::all(); // lanes to refill
        let mut i = 0usize;
        while i + w <= n {
            // Grow *between* vectors when a full vector of new groups
            // could saturate the table (`groups + W + 1 > buckets` would
            // break the one-empty-bucket probe-termination invariant).
            // In-flight lanes have not updated anything yet, so resetting
            // their probe offsets and re-probing the rehashed table is
            // safe.
            while self.groups + w + 1 >= t {
                self.grow();
                t = self.keys.len();
                tn = s.splat(t as u32);
                o = s.zero();
            }
            k = s.selective_load(k, m, &keys[i..]);
            v = s.selective_load(v, m, &values[i..]);
            i += m.count();
            // Sentinel-keyed lanes go to the side aggregate and are
            // refilled; the other lanes wait, untouched, for the next
            // iteration, so the table steps below never see the sentinel.
            let sent = s.cmpeq(k, empty);
            if sent.any() {
                let mut va = [0u32; MAX_LANES];
                s.store(v, &mut va[..w]);
                for lane in sent.iter_set() {
                    self.update_sentinel(va[lane]);
                }
                m = sent;
                continue;
            }
            let mut h = s.add(s.mulhi(s.mullo(k, f), tn), o);
            let over = s.cmpge(h, tn);
            h = s.blend(over, s.sub(h, tn), h);
            let tk = s.gather(&self.keys, h);
            // Lanes whose bucket is empty try to claim it for a new group.
            let empt = s.cmpeq(tk, empty);
            if empt.any() {
                s.scatter_masked(&mut self.keys, empt, h, lane_ids);
                let back = s.gather_masked(lane_ids, empt, &self.keys, h);
                let won = empt.and(s.cmpeq(back, lane_ids));
                s.scatter_masked(&mut self.keys, won, h, k);
                self.groups += won.count();
                // the loop-top grow guard keeps at least one empty bucket
                debug_assert!(self.groups + 1 < t, "saturation guard failed");
                // losers must retry (their o stays; bucket now occupied)
            }
            // Re-read bucket keys (claims may have just landed).
            let tk = s.gather(&self.keys, h);
            let found = s.cmpeq(tk, k);
            // Defer all but the first lane touching each bucket: the
            // read-modify-write below would otherwise lose increments.
            let first = s.cmpeq(s.conflict(h), s.zero());
            let upd = found.and(first);
            if upd.any() {
                let c = s.gather_masked(s.zero(), upd, &self.counts, h);
                s.scatter_masked(&mut self.counts, upd, h, s.add(c, one));
                let lo = s.gather_masked(s.zero(), upd, &self.sum_lo, h);
                let new_lo = s.add(lo, v);
                s.scatter_masked(&mut self.sum_lo, upd, h, new_lo);
                let carry = s.cmplt(new_lo, lo); // wrapped => carry
                let carry_upd = carry.and(upd);
                if carry_upd.any() {
                    let hi = s.gather_masked(s.zero(), carry_upd, &self.sum_hi, h);
                    s.scatter_masked(&mut self.sum_hi, carry_upd, h, s.add(hi, one));
                }
            }
            // Lanes that found a different, occupied key probe onward.
            let miss = found.not().and(empt.not());
            o = s.blend(miss, s.add(o, one), s.zero());
            // Refill only the lanes that completed their update.
            m = upd;
        }
        // Drain in-flight lanes and the tail with scalar code.
        let mut ka = [0u32; MAX_LANES];
        let mut va = [0u32; MAX_LANES];
        s.store(k, &mut ka[..w]);
        s.store(v, &mut va[..w]);
        for lane in m.not().iter_set() {
            self.update(ka[lane], va[lane]);
        }
        for idx in i..n {
            self.update(keys[idx], values[idx]);
        }
    }

    /// Iterate over `(group key, count, sum)` results: the bucket array's
    /// groups in bucket order, then the [`EMPTY_KEY`] group if present.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        self.keys
            .iter()
            .enumerate()
            .filter(|&(_h, &k)| k != EMPTY_KEY)
            .map(|(h, &k)| {
                (
                    k,
                    self.counts[h],
                    u64::from(self.sum_lo[h]) | (u64::from(self.sum_hi[h]) << 32),
                )
            })
            .chain(self.sentinel.map(|(c, sum)| (EMPTY_KEY, c, sum)))
    }

    /// Drain the groups into column slices of exactly
    /// [`GroupAggTable::groups`] entries, in [`GroupAggTable::iter`]
    /// order: entry `i` gets its key, `first_row + i` as its row id, its
    /// count and its sum. Parallel merges give every worker's table a
    /// disjoint row range of shared columns.
    pub fn write_columns(
        &self,
        first_row: u32,
        keys: &mut [u32],
        rows: &mut [u32],
        counts: &mut [u32],
        sums: &mut [u64],
    ) {
        let n = self.groups();
        assert!(
            keys.len() == n && rows.len() == n && counts.len() == n && sums.len() == n,
            "drain columns must hold exactly {n} groups"
        );
        for (i, (k, c, sum)) in self.iter().enumerate() {
            keys[i] = k;
            rows[i] = first_row + i as u32;
            counts[i] = c;
            sums[i] = sum;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rsv_simd::Portable;
    use std::collections::HashMap;

    fn reference(keys: &[u32], values: &[u32]) -> HashMap<u32, (u32, u64)> {
        let mut m: HashMap<u32, (u32, u64)> = HashMap::new();
        for (&k, &v) in keys.iter().zip(values) {
            let e = m.entry(k).or_insert((0, 0));
            e.0 += 1;
            e.1 += u64::from(v);
        }
        m
    }

    fn collect(t: &GroupAggTable) -> HashMap<u32, (u32, u64)> {
        t.iter().map(|(k, c, s)| (k, (c, s))).collect()
    }

    #[test]
    fn scalar_matches_reference() {
        let mut rng = rsv_data::rng(71);
        let keys: Vec<u32> = rsv_data::uniform_u32(5000, &mut rng)
            .iter()
            .map(|k| k % 97)
            .collect();
        let values = rsv_data::uniform_u32(5000, &mut rng);
        let mut t = GroupAggTable::new(128, 0.5);
        t.update_scalar(&keys, &values);
        assert_eq!(collect(&t), reference(&keys, &values));
        assert_eq!(t.groups(), 97);
    }

    #[test]
    fn vector_matches_reference() {
        let s = Portable::<16>::new();
        let mut rng = rsv_data::rng(72);
        for (n, domain) in [(5000usize, 97u32), (1000, 3), (64, 64), (10_000, 5000)] {
            let keys: Vec<u32> = rsv_data::uniform_u32(n, &mut rng)
                .iter()
                .map(|k| k % domain)
                .collect();
            let values = rsv_data::uniform_u32(n, &mut rng);
            let mut t = GroupAggTable::new(domain as usize, 0.5);
            t.update_vector(s, &keys, &values);
            assert_eq!(
                collect(&t),
                reference(&keys, &values),
                "n={n} domain={domain}"
            );
        }
    }

    #[test]
    fn vector_sum_carries_into_high_word() {
        let s = Portable::<16>::new();
        // many large values into one group: sum exceeds 2^32
        let keys = vec![42u32; 4096];
        let values = vec![u32::MAX - 3; 4096];
        let mut t = GroupAggTable::new(4, 0.5);
        t.update_vector(s, &keys, &values);
        let rows: Vec<_> = t.iter().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], (42, 4096, 4096u64 * u64::from(u32::MAX - 3)));
    }

    #[test]
    fn incremental_updates_accumulate() {
        let s = Portable::<8>::new();
        let mut t = GroupAggTable::new(16, 0.5);
        t.update_vector(s, &[1, 2, 1, 2, 1, 2, 1, 2], &[10, 1, 10, 1, 10, 1, 10, 1]);
        t.update_scalar(&[1, 3], &[5, 7]);
        let m = collect(&t);
        assert_eq!(m[&1], (5, 45));
        assert_eq!(m[&2], (4, 4));
        assert_eq!(m[&3], (1, 7));
    }

    /// Regression: pre-fix, a full table died on an `assert!` deep in the
    /// probe loop (and with the assert removed the probe would spin
    /// forever). With `groups == buckets − 1` the scalar and vector paths
    /// must terminate — growing for `update`, `Err` for `try_update`.
    #[test]
    fn saturated_table_updates_terminate() {
        let mut t = GroupAggTable::new(6, 0.9);
        let buckets = t.buckets();
        // fill to exactly buckets − 1 groups (one empty bucket left)
        for k in 0..buckets as u32 - 1 {
            t.update(k, 1);
        }
        assert_eq!(t.groups(), buckets - 1);
        assert_eq!(t.buckets(), buckets, "filling must not grow yet");
        // an existing group still updates without growing
        assert_eq!(t.try_update(0, 1), Ok(()));
        // a new group is refused by try_update (terminates, no insert) …
        assert_eq!(t.try_update(buckets as u32, 1), Err(AggTableFull));
        assert_eq!(t.groups(), buckets - 1);
        // … and absorbed by update via growth
        t.update(buckets as u32, 7);
        assert!(t.buckets() > buckets, "update must grow at saturation");
        assert_eq!(t.groups(), buckets);
        let m = collect(&t);
        assert_eq!(m[&0], (2, 2));
        assert_eq!(m[&(buckets as u32)], (1, 7));
    }

    #[test]
    fn vector_path_grows_at_saturation() {
        let s = Portable::<16>::new();
        // 4-bucket table, 300 distinct keys: the kernel must grow many
        // times and still aggregate exactly.
        let keys: Vec<u32> = (0..300u32).flat_map(|k| [k, k]).collect();
        let values: Vec<u32> = (0..600u32).collect();
        let mut t = GroupAggTable::new(2, 0.5);
        t.update_vector(s, &keys, &values);
        assert_eq!(collect(&t), reference(&keys, &values));
        assert_eq!(t.groups(), 300);
    }

    #[test]
    fn growth_preserves_aggregates() {
        let mut rng = rsv_data::rng(74);
        let keys: Vec<u32> = rsv_data::uniform_u32(3000, &mut rng)
            .iter()
            .map(|k| k % 512)
            .collect();
        let values = rsv_data::uniform_u32(3000, &mut rng);
        // deliberately undersized: starts at ~4 buckets
        let mut t = GroupAggTable::new(2, 0.5);
        t.update_scalar(&keys, &values);
        assert_eq!(collect(&t), reference(&keys, &values));
    }

    /// Regression: a row keyed [`EMPTY_KEY`] was dropped by the vector
    /// kernel (it "claimed" an empty bucket with the empty key) and
    /// tripped an assert on the scalar path. 4096 rows, keys `i % 100`,
    /// row 0 keyed `u32::MAX`: 101 groups holding all 4096 rows.
    #[test]
    fn sentinel_key_is_a_group_on_every_path() {
        let keys: Vec<u32> = (0..4096u32)
            .map(|i| if i == 0 { u32::MAX } else { i % 100 })
            .collect();
        let values: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(7919)).collect();
        let expected = reference(&keys, &values);
        assert_eq!(expected.len(), 101);
        let check = |t: &GroupAggTable, path: &str| {
            assert_eq!(collect(t), expected, "{path}");
            assert_eq!(t.groups(), 101, "{path}");
            let total: u32 = t.iter().map(|(_, c, _)| c).sum();
            assert_eq!(total, 4096, "{path}");
        };

        let mut t = GroupAggTable::new(128, 0.5);
        t.update_scalar(&keys, &values);
        check(&t, "scalar");
        let mut t = GroupAggTable::new(128, 0.5);
        t.update_vector(Portable::<8>::new(), &keys, &values);
        check(&t, "portable-8");
        for b in rsv_simd::Backend::all_available() {
            let mut t = GroupAggTable::new(128, 0.5);
            rsv_simd::dispatch!(b, s => { t.update_vector(s, &keys, &values) });
            check(&t, b.name());
        }
        // The sentinel in the scalar tail (n not a multiple of W) and in a
        // table that must grow: the side aggregate survives rehashing.
        let mut tail_keys = keys.clone();
        tail_keys.push(u32::MAX);
        let mut tail_values = values.clone();
        tail_values.push(5);
        let mut t = GroupAggTable::new(2, 0.5);
        t.update_vector(Portable::<16>::new(), &tail_keys, &tail_values);
        assert_eq!(collect(&t), reference(&tail_keys, &tail_values));

        let n = t.groups();
        let (mut k, mut r, mut c, mut s) = (vec![0; n], vec![0; n], vec![0; n], vec![0u64; n]);
        t.write_columns(10, &mut k, &mut r, &mut c, &mut s);
        let drained: Vec<(u32, u32, u64)> = (0..n).map(|i| (k[i], c[i], s[i])).collect();
        assert_eq!(drained, t.iter().collect::<Vec<_>>());
        assert_eq!(r, (10..10 + n as u32).collect::<Vec<_>>());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_match() {
        let mut rng = rsv_data::rng(73);
        let keys: Vec<u32> = rsv_data::uniform_u32(20_000, &mut rng)
            .iter()
            .map(|k| k % 1009)
            .collect();
        let values = rsv_data::uniform_u32(20_000, &mut rng);
        let expected = reference(&keys, &values);
        if let Some(s) = rsv_simd::Avx512::new() {
            let mut t = GroupAggTable::new(1009, 0.5);
            t.update_vector(s, &keys, &values);
            assert_eq!(collect(&t), expected);
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            let mut t = GroupAggTable::new(1009, 0.5);
            t.update_vector(s, &keys, &values);
            assert_eq!(collect(&t), expected);
        }
    }
}
