//! High-level API for the SIGMOD 2015 *Rethinking SIMD Vectorization for
//! In-Memory Databases* reproduction.
//!
//! This crate re-exports every operator crate and offers [`Engine`], a
//! convenience wrapper that picks the best SIMD backend at runtime and
//! exposes the paper's operators — selection scans, hash joins, Bloom
//! semi-joins, partitioning and sorting — as one-call methods.
//!
//! ```
//! use rsv_core::{Engine, Relation};
//!
//! let engine = Engine::new();
//! let orders = Relation::with_rid_payloads(vec![40, 10, 30, 20]);
//! let cheap = engine.select(&orders, 0, 25);
//! assert_eq!(cheap.keys, vec![10, 20]);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod profile;

pub use rsv_bloom as bloom;
pub use rsv_column as column;
pub use rsv_data as data;
pub use rsv_exec as exec;
pub use rsv_hashtab as hashtab;
pub use rsv_join as join;
pub use rsv_metrics as metrics;
pub use rsv_partition as partition;
pub use rsv_scan as scan;
pub use rsv_simd as simd;
pub use rsv_sort as sort;

pub use profile::{Query, QueryProfile};

pub use rsv_bloom::BloomFilter;
pub use rsv_column::{CompressedColumn, CompressedRelation, RelationCompressExt};
pub use rsv_data::Relation;
pub use rsv_hashtab::JoinSink;
pub use rsv_join::{JoinResult, JoinVariant};
pub use rsv_simd::Backend;
pub use rsv_sort::SortConfig;

pub use rsv_exec::{CancelToken, EngineError, MemoryBudget, RunContext};

use rsv_exec::{
    chunk_ranges, expect_infallible, filter_morsels, parallel_scope, ExecPolicy, MorselQueue,
    SharedBuffer, WorkerPanic, DEFAULT_MORSEL_TUPLES,
};
use rsv_hashtab::GroupAggTable;
use rsv_partition::twopass::MAX_DIRECT_FANOUT;
use rsv_partition::PartitionFn;
use rsv_scan::{ScanPredicate, ScanVariant};
use rsv_simd::dispatch;

/// Bloom semi-join filter shape: the paper's 10 bits per key and 5 hash
/// functions (§6).
const SEMIJOIN_BITS_PER_KEY: usize = 10;
const SEMIJOIN_FUNCTIONS: usize = 5;

/// A vectorized in-memory query engine over 32-bit key/payload columns.
///
/// Parallel operators run on the morsel-driven work-stealing scheduler
/// ([`rsv_exec::MorselQueue`]); their output is byte-identical for every
/// thread count and morsel size (joins up to result row order, which is
/// inherently unstable under vectorized probing).
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    backend: Backend,
    threads: usize,
    morsel_tuples: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Engine on the best available SIMD backend, single-threaded.
    pub fn new() -> Self {
        Engine {
            backend: Backend::best(),
            threads: 1,
            morsel_tuples: DEFAULT_MORSEL_TUPLES,
        }
    }

    /// Engine on a specific backend.
    pub fn with_backend(backend: Backend) -> Self {
        Engine {
            backend,
            threads: 1,
            morsel_tuples: DEFAULT_MORSEL_TUPLES,
        }
    }

    /// Set the worker thread count for parallel operators. Values below 1
    /// are clamped to 1 (a builder knob misconfigured from e.g. an empty
    /// CPU set should degrade to single-threaded, not crash the query).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the scheduling granularity in tuples per morsel
    /// (`usize::MAX` = one morsel per worker, the paper's static split).
    /// Never changes operator output. Values below 1 are clamped to 1.
    pub fn with_morsel_tuples(mut self, morsel_tuples: usize) -> Self {
        self.morsel_tuples = morsel_tuples.max(1);
        self
    }

    /// The backend in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    fn policy_with(&self, run: &RunContext) -> ExecPolicy {
        ExecPolicy::new(self.threads)
            .with_morsel_tuples(self.morsel_tuples)
            .with_run(run.clone())
    }

    fn sort_config(&self) -> SortConfig {
        SortConfig {
            radix_bits: 8,
            threads: self.threads,
            morsel_tuples: self.morsel_tuples,
        }
    }

    /// Selection scan: all tuples with `lower ≤ key ≤ upper` (paper §4,
    /// vectorized Algorithm 3), morsel-parallel.
    pub fn select(&self, rel: &Relation, lower: u32, upper: u32) -> Relation {
        expect_infallible(self.try_select(rel, lower, upper, &RunContext::new()))
    }

    /// Fallible [`Engine::select`] under a [`RunContext`]. The scan
    /// counts each morsel's qualifiers, then writes them straight into
    /// exact-size output columns ([`rsv_scan::scan_parallel`]), which are
    /// gated by the run's memory budget. Cancellation is observed at
    /// morsel-claim boundaries (so the latency from [`CancelToken::cancel`]
    /// to return is bounded by one morsel), and a worker panic surfaces as
    /// [`EngineError::WorkerPanicked`] instead of unwinding through the
    /// caller.
    pub fn try_select(
        &self,
        rel: &Relation,
        lower: u32,
        upper: u32,
        run: &RunContext,
    ) -> Result<Relation, EngineError> {
        let (keys, pays) = rsv_scan::scan_parallel(
            self.backend,
            &rel.keys,
            &rel.payloads,
            ScanPredicate { lower, upper },
            &self.policy_with(run),
        )?;
        Ok(Relation::new(keys, pays))
    }

    /// Compress a relation's columns (FOR + bit-packing, block directory)
    /// on this engine's backend. See [`rsv_column`].
    pub fn compress(&self, rel: &Relation) -> CompressedRelation {
        CompressedRelation::compress_with(self.backend, rel)
    }

    /// Decompress a compressed relation back to materialized columns.
    pub fn decompress(&self, rel: &CompressedRelation) -> Relation {
        rel.decompress_with(self.backend)
    }

    /// Fused compressed selection scan: like [`Engine::select`], but the
    /// input stays bit-packed and qualifying blocks are decompressed into
    /// registers on the fly (never materialized), morsel-parallel with
    /// block-aligned morsels. Output is byte-identical to
    /// `self.select(&self.decompress(rel), lower, upper)`.
    pub fn select_compressed(&self, rel: &CompressedRelation, lower: u32, upper: u32) -> Relation {
        expect_infallible(self.try_select_compressed(rel, lower, upper, &RunContext::new()))
    }

    /// Fallible [`Engine::select_compressed`] under a [`RunContext`].
    /// Each block is decoded once: workers keep each morsel's qualifiers
    /// in their own run buffers, which are then copied in parallel into
    /// exact-size output columns ([`rsv_column::select_fused_parallel`]).
    /// The scratch, run buffers and output are gated by the run's memory
    /// budget, cancellation is observed at morsel-claim boundaries, and a
    /// worker panic surfaces as [`EngineError::WorkerPanicked`].
    pub fn try_select_compressed(
        &self,
        rel: &CompressedRelation,
        lower: u32,
        upper: u32,
        run: &RunContext,
    ) -> Result<Relation, EngineError> {
        let (keys, pays) = rsv_column::select_fused_parallel(
            self.backend,
            ScanVariant::VectorSelStoreIndirect,
            &rel.keys,
            &rel.payloads,
            ScanPredicate { lower, upper },
            &self.policy_with(run),
        )?;
        Ok(Relation::new(keys, pays))
    }

    /// Hash join `inner ⋈ outer` on the key columns using the paper's
    /// fastest variant (max-partition, §9). Returns `(key, inner payload,
    /// outer payload)` triples.
    pub fn hash_join(&self, inner: &Relation, outer: &Relation) -> JoinResult {
        self.hash_join_variant(inner, outer, JoinVariant::MaxPartition)
    }

    /// Hash join with an explicit variant.
    pub fn hash_join_variant(
        &self,
        inner: &Relation,
        outer: &Relation,
        variant: JoinVariant,
    ) -> JoinResult {
        expect_infallible(self.try_hash_join_variant(inner, outer, variant, &RunContext::new()))
    }

    /// Fallible [`Engine::hash_join`] (max-partition variant) under a
    /// [`RunContext`].
    pub fn try_hash_join(
        &self,
        inner: &Relation,
        outer: &Relation,
        run: &RunContext,
    ) -> Result<JoinResult, EngineError> {
        self.try_hash_join_variant(inner, outer, JoinVariant::MaxPartition, run)
    }

    /// Fallible [`Engine::hash_join_variant`] under a [`RunContext`]:
    /// partitioned columns and hash tables are gated by the memory budget,
    /// cancellation is observed at every morsel/task claim, and worker
    /// panics surface as [`EngineError::WorkerPanicked`].
    pub fn try_hash_join_variant(
        &self,
        inner: &Relation,
        outer: &Relation,
        variant: JoinVariant,
        run: &RunContext,
    ) -> Result<JoinResult, EngineError> {
        let policy = self.policy_with(run);
        dispatch!(self.backend, s => {
            match variant {
                JoinVariant::NoPartition => {
                    rsv_join::join_no_partition(s, true, inner, outer, &policy)
                }
                JoinVariant::MinPartition => {
                    rsv_join::join_min_partition(s, true, inner, outer, &policy)
                }
                JoinVariant::MaxPartition => {
                    rsv_join::join_max_partition(s, true, inner, outer, &policy)
                }
            }
        })
    }

    /// Bloom-filter semi-join (paper §6): keep the tuples of `rel` whose
    /// key is (probably) present in `filter_keys`. Probing is
    /// morsel-parallel; qualifiers keep input order.
    pub fn bloom_semijoin(&self, rel: &Relation, filter_keys: &[u32]) -> Relation {
        expect_infallible(self.try_bloom_semijoin(rel, filter_keys, &RunContext::new()))
    }

    /// Fallible [`Engine::bloom_semijoin`] under a [`RunContext`].
    ///
    /// 1. **build** — each worker inserts a contiguous chunk of
    ///    `filter_keys` into a private filter, and the filters are
    ///    OR-merged (the same words as a serial build);
    /// 2. **probe** — each morsel is probed with the paper's vertical
    ///    kernel, taking each row's offset in its morsel as the payload.
    ///    The kernel retires qualifiers out of input order, so a per-morsel
    ///    bitmap over the returned offsets restores it and the worker
    ///    gathers key and payload in order;
    /// 3. **concat** — the per-worker runs are copied in parallel into
    ///    exact-size output columns ([`rsv_exec::filter_morsels`]).
    ///
    /// The filters, the offset column, the probe scratch, the run buffers
    /// and the output are gated by the memory budget and released on every
    /// path, cancellation is observed at morsel-claim boundaries, and a
    /// worker panic surfaces as [`EngineError::WorkerPanicked`].
    pub fn try_bloom_semijoin(
        &self,
        rel: &Relation,
        filter_keys: &[u32],
        run: &RunContext,
    ) -> Result<Relation, EngineError> {
        run.check_cancelled()?;
        let filter_bytes =
            self.threads * BloomFilter::size_bytes_for(filter_keys.len(), SEMIJOIN_BITS_PER_KEY);
        let _filters = run.budget.hold(filter_bytes as u64)?;
        let filter = self.build_filter(filter_keys)?;
        let policy = self.policy_with(run);
        let q = MorselQueue::new(rel.len(), &policy, 16);
        let _offsets = run.budget.hold(4 * q.max_morsel_len() as u64)?;
        let offsets: Vec<u32> = (0..q.max_morsel_len() as u32).collect();
        let (keys, pays) = filter_morsels(&q, &policy, |rows, ok, op| {
            let c = dispatch!(self.backend, s => {
                filter.probe_vector(s, &rel.keys[rows.clone()], &offsets[..rows.len()], ok, op)
            });
            // Restore input order: mark the qualifying offsets, then
            // gather key and payload in offset order.
            let mut marks = vec![0u64; rows.len().div_ceil(64)];
            for &o in &op[..c] {
                marks[o as usize / 64] |= 1 << (o % 64);
            }
            let mut j = 0;
            for (w, &word) in marks.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let row = rows.start + 64 * w + bits.trailing_zeros() as usize;
                    ok[j] = rel.keys[row];
                    op[j] = rel.payloads[row];
                    j += 1;
                    bits &= bits - 1;
                }
            }
            c
        })?;
        Ok(Relation::new(keys, pays))
    }

    /// The semi-join's filter over `keys`, built by one private filter per
    /// worker over a contiguous chunk of `keys` and OR-merged into the
    /// first.
    fn build_filter(&self, keys: &[u32]) -> Result<BloomFilter, EngineError> {
        let chunks = chunk_ranges(keys.len(), self.threads, 1);
        let filters = parallel_scope(self.threads, |ctx| {
            let mut f = BloomFilter::new(keys.len(), SEMIJOIN_BITS_PER_KEY, SEMIJOIN_FUNCTIONS);
            ctx.phase(|| f.build(&keys[chunks[ctx.thread_id].clone()]));
            f
        })
        .map_err(WorkerPanic::into_engine_error)?;
        let merged = filters.into_iter().reduce(|mut a, b| {
            a.union_with(&b);
            a
        });
        Ok(merged.expect("a scope has at least one worker"))
    }

    /// Stable LSB radixsort by key (paper §8).
    pub fn sort(&self, rel: &mut Relation) {
        expect_infallible(self.try_sort(rel, &RunContext::new()))
    }

    /// Fallible [`Engine::sort`] under a [`RunContext`]: the radixsort's
    /// ping-pong scratch columns are gated by the memory budget and
    /// cancellation is observed at morsel-claim boundaries of every pass.
    /// On error the relation keeps its tuples (possibly partially
    /// reordered — rerun to completion to sort them).
    pub fn try_sort(&self, rel: &mut Relation, run: &RunContext) -> Result<(), EngineError> {
        let cfg = self.sort_config();
        let mut keys = std::mem::take(&mut rel.keys);
        let mut pays = std::mem::take(&mut rel.payloads);
        let r = dispatch!(self.backend, s => {
            rsv_sort::radixsort_pairs(s, true, &mut keys, &mut pays, &cfg, run)
        });
        rel.keys = keys;
        rel.payloads = pays;
        r
    }

    /// Hash-partition a relation into `fanout` parts (paper §7, buffered
    /// shuffling), morsel-parallel and stable. Returns the partitioned
    /// relation and the partition start offsets.
    ///
    /// Fanouts past [`rsv_partition::twopass::MAX_DIRECT_FANOUT`] degrade
    /// transparently to a two-pass decomposition (the single-pass staging
    /// buffers would outgrow the cache) with byte-identical output.
    pub fn hash_partition(&self, rel: &Relation, fanout: usize) -> (Relation, Vec<u32>) {
        expect_infallible(self.try_hash_partition(rel, fanout, &RunContext::new()))
    }

    /// Fallible [`Engine::hash_partition`] under a [`RunContext`]: the
    /// output (and any two-pass scratch) columns are gated by the memory
    /// budget and cancellation is observed at morsel-claim boundaries.
    pub fn try_hash_partition(
        &self,
        rel: &Relation,
        fanout: usize,
        run: &RunContext,
    ) -> Result<(Relation, Vec<u32>), EngineError> {
        let f = rsv_partition::HashFn::new(fanout);
        let out_bytes = 2 * (rel.len() as u64) * std::mem::size_of::<u32>() as u64;
        run.reserve(out_bytes)?;
        let mut out_keys = vec![0u32; rel.len()];
        let mut out_pays = vec![0u32; rel.len()];
        let r = dispatch!(self.backend, s => {
            rsv_partition::twopass::hash_partition_twopass(
                s, true, f, &rel.keys, &rel.payloads, &mut out_keys, &mut out_pays,
                &self.policy_with(run), MAX_DIRECT_FANOUT,
            )
        });
        run.budget.release(out_bytes);
        let pass = r?;
        Ok((Relation::new(out_keys, out_pays), pass.partition_starts))
    }

    /// Which partition a key belongs to under [`Engine::hash_partition`].
    pub fn hash_partition_of(&self, key: u32, fanout: usize) -> usize {
        rsv_partition::HashFn::new(fanout).partition(key)
    }

    /// Group-by aggregation: per distinct key, `COUNT(*)` and
    /// `SUM(payload)` (vectorized hash aggregation, paper §5's second
    /// hash-table use case). Returns `(key, count, sum)` rows sorted by
    /// key; every `u32` is a legal key. See
    /// [`Engine::try_group_by_sum`] for the algorithm.
    ///
    /// `expected_groups` sizes the aggregation tables; it may be any upper
    /// bound (e.g. `rel.len()`).
    pub fn group_by_sum(&self, rel: &Relation, expected_groups: usize) -> Vec<(u32, u32, u64)> {
        expect_infallible(self.try_group_by_sum(rel, expected_groups, &RunContext::new()))
    }

    /// Fallible [`Engine::group_by_sum`] under a [`RunContext`].
    ///
    /// Workers aggregate claimed morsels into private tables, which are
    /// then merged in parallel with the paper's §8 radixsort:
    ///
    /// 1. **drain** — each worker writes its table's groups into its
    ///    prefix-sum slot of four columns (key, row id, count, sum);
    /// 2. **sort** — the `(key, row id)` pairs are LSB-radixsorted;
    /// 3. **fold** — runs of equal keys (at most one entry per worker)
    ///    are summed by gathering counts and sums through the row ids.
    ///
    /// The merge is commutative, so the result is schedule-independent.
    /// The per-worker tables at their initial size (16 B per bucket) and
    /// the drain columns (20 B per worker group) are gated by the memory
    /// budget, as is the sort's scratch; table growth inside the kernel
    /// (when `expected_groups` is too small) is not. Cancellation is
    /// observed at morsel-claim boundaries, and a worker panic surfaces
    /// as [`EngineError::WorkerPanicked`] after the sibling workers drain.
    pub fn try_group_by_sum(
        &self,
        rel: &Relation,
        expected_groups: usize,
        run: &RunContext,
    ) -> Result<Vec<(u32, u32, u64)>, EngineError> {
        let capacity = expected_groups.max(1);
        let table_bytes = self.threads as u64 * GroupAggTable::initial_bytes(capacity, 0.5);
        run.reserve(table_bytes)?;
        let release_tables = || run.budget.release(table_bytes);
        let q = MorselQueue::new(rel.len(), &self.policy_with(run), 16);
        let scope = parallel_scope(self.threads, |ctx| {
            let mut table = GroupAggTable::new(capacity, 0.5);
            for mo in ctx.morsels(&q) {
                ctx.phase(|| {
                    let r = mo.range.clone();
                    dispatch!(self.backend, s => {
                        table.update_vector(s, &rel.keys[r.clone()], &rel.payloads[r])
                    });
                });
            }
            table
        });
        let tables = match scope {
            Ok(tables) => tables,
            Err(wp) => {
                release_tables();
                return Err(wp.into_engine_error());
            }
        };
        if let Err(e) = run.check_cancelled() {
            release_tables();
            return Err(e);
        }

        // Drain: worker `i` writes table `i` into its prefix-sum slot.
        let mut offsets = vec![0usize];
        for t in &tables {
            offsets.push(offsets[offsets.len() - 1] + t.groups());
        }
        let total = offsets[tables.len()];
        // Row ids are u32, like every position column in the engine.
        assert!(
            u32::try_from(total).is_ok(),
            "{total} groups overflow u32 row ids"
        );
        let drain_bytes = 20 * total as u64;
        if let Err(e) = run.reserve(drain_bytes) {
            release_tables();
            return Err(e);
        }
        let keys = SharedBuffer::<u32>::zeroed(total);
        let rows = SharedBuffer::<u32>::zeroed(total);
        let counts = SharedBuffer::<u32>::zeroed(total);
        let sums = SharedBuffer::<u64>::zeroed(total);
        let drained = parallel_scope(tables.len(), |ctx| {
            let id = ctx.thread_id;
            let r = offsets[id]..offsets[id + 1];
            // SAFETY: worker `id` writes only its own row range `r`, and
            // the columns are read only after the scope joins.
            let (k, w, c, s) = unsafe {
                (
                    keys.view_mut(),
                    rows.view_mut(),
                    counts.view_mut(),
                    sums.view_mut(),
                )
            };
            ctx.phase(|| {
                tables[id].write_columns(
                    r.start as u32,
                    &mut k[r.clone()],
                    &mut w[r.clone()],
                    &mut c[r.clone()],
                    &mut s[r],
                )
            });
        });
        drop(tables);
        release_tables();
        let (mut keys, mut rows) = (keys.into_vec(), rows.into_vec());
        let (counts, sums) = (counts.into_vec(), sums.into_vec());

        // Sort the (key, row id) pairs, then fold runs of equal keys.
        let cfg = self.sort_config();
        let sorted = drained.map_err(|wp| wp.into_engine_error()).and_then(|_| {
            dispatch!(self.backend, s => {
                rsv_sort::radixsort_pairs(s, true, &mut keys, &mut rows, &cfg, run)
            })
        });
        let merged = sorted.map(|_| {
            let mut out = Vec::with_capacity(total);
            let mut at = 0;
            for group in keys.chunk_by(|a, b| a == b) {
                let (mut c, mut sum) = (0u32, 0u64);
                for &r in &rows[at..at + group.len()] {
                    c += counts[r as usize];
                    sum += sums[r as usize];
                }
                at += group.len();
                out.push((group[0], c, sum));
            }
            out
        });
        run.budget.release(drain_bytes);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new().with_threads(2)
    }

    #[test]
    fn select_filters() {
        let rel = Relation::with_rid_payloads(vec![5, 50, 500, 5000]);
        let out = engine().select(&rel, 10, 1000);
        assert_eq!(out.keys, vec![50, 500]);
        assert_eq!(out.payloads, vec![1, 2]);
    }

    #[test]
    fn select_compressed_matches_select() {
        let mut rng = rsv_data::rng(306);
        let rel = Relation::with_rid_payloads(
            rsv_data::uniform_u32(20_000, &mut rng)
                .iter()
                .map(|k| k % 100_000)
                .collect(),
        );
        for b in Backend::all_available() {
            for threads in [1usize, 4] {
                let e = Engine::with_backend(b)
                    .with_threads(threads)
                    .with_morsel_tuples(3_000);
                let c = e.compress(&rel);
                assert_eq!(e.decompress(&c), rel, "{} roundtrip", b.name());
                let raw = e.select(&rel, 10_000, 60_000);
                let fused = e.select_compressed(&c, 10_000, 60_000);
                assert_eq!(fused, raw, "{} t={threads}", b.name());
            }
        }
    }

    #[test]
    fn relation_compress_ext_is_reachable() {
        let rel = Relation::with_rid_payloads(vec![9, 8, 7, 6]);
        let c = rel.compress();
        assert_eq!(c.decompress(), rel);
    }

    #[test]
    fn join_variants_agree() {
        let mut rng = rsv_data::rng(301);
        let w = rsv_data::join_workload(2_000, 6_000, 1.0, 0.8, &mut rng);
        let e = engine();
        let results: Vec<JoinResult> = JoinVariant::ALL
            .iter()
            .map(|&v| e.hash_join_variant(&w.inner, &w.outer, v))
            .collect();
        assert_eq!(results[0].matches(), w.expected_matches);
        let fp = results[0].fingerprint();
        for r in &results[1..] {
            assert_eq!(r.matches(), w.expected_matches);
            assert_eq!(r.fingerprint(), fp);
        }
    }

    #[test]
    fn sort_orders_relation() {
        let mut rng = rsv_data::rng(302);
        let mut rel = Relation::with_rid_payloads(rsv_data::uniform_u32(10_000, &mut rng));
        let orig = rel.clone();
        engine().sort(&mut rel);
        assert!(rel.keys.windows(2).all(|w| w[0] <= w[1]));
        for (k, p) in rel.iter() {
            assert_eq!(orig.keys[p as usize], k);
        }
    }

    #[test]
    fn bloom_semijoin_no_false_negatives() {
        let mut rng = rsv_data::rng(303);
        let all = rsv_data::unique_u32(3_000, &mut rng);
        let (present, absent) = all.split_at(1_000);
        let rel =
            Relation::with_rid_payloads(present.iter().chain(absent.iter()).copied().collect());
        let out = engine().bloom_semijoin(&rel, present);
        // every present key survives; most absent keys are gone
        assert!(out.len() >= 1_000);
        assert!(out.len() < 1_000 + 200);
        let kept: std::collections::HashSet<u32> = out.keys.iter().copied().collect();
        assert!(present.iter().all(|k| kept.contains(k)));
    }

    /// Every morsel boundary is a multiple of 16, so rows `16i` and
    /// `16i + 15` are the first and last rows of morsels; the last 7 rows
    /// fall in the probe's scalar tail. All of them qualify.
    #[test]
    fn bloom_semijoin_keeps_input_order_exactly() {
        let mut rng = rsv_data::rng(307);
        let pool = rsv_data::unique_u32(8_000, &mut rng);
        let (present, absent) = pool.split_at(2_000);
        let n = 5_007;
        let keys: Vec<u32> = (0..n)
            .map(|i| {
                let edge = i % 16 == 0 || i % 16 == 15 || i >= n - 7;
                if edge || i % 5 == 0 {
                    present[i % present.len()]
                } else {
                    absent[i % absent.len()]
                }
            })
            .collect();
        let rel = Relation::with_rid_payloads(keys);
        let mut filter = BloomFilter::new(present.len(), SEMIJOIN_BITS_PER_KEY, SEMIJOIN_FUNCTIONS);
        filter.build(present);
        let (mut ek, mut ep) = (vec![0u32; n], vec![0u32; n]);
        let c = filter.probe_scalar(&rel.keys, &rel.payloads, &mut ek, &mut ep);
        ek.truncate(c);
        ep.truncate(c);
        let expected = Relation::new(ek, ep);
        for b in Backend::all_available() {
            for threads in [1usize, 2, 8] {
                for morsel in [64usize, 1_000, DEFAULT_MORSEL_TUPLES] {
                    let e = Engine::with_backend(b)
                        .with_threads(threads)
                        .with_morsel_tuples(morsel);
                    let got = e.bloom_semijoin(&rel, present);
                    assert_eq!(got, expected, "{} t={threads} morsel={morsel}", b.name());
                }
            }
        }
    }

    #[test]
    fn parallel_filter_build_matches_serial() {
        let keys = rsv_data::unique_u32(10_001, &mut rsv_data::rng(308));
        let mut serial = BloomFilter::new(keys.len(), SEMIJOIN_BITS_PER_KEY, SEMIJOIN_FUNCTIONS);
        serial.build(&keys);
        for threads in [1usize, 2, 8] {
            let built = Engine::new().with_threads(threads).build_filter(&keys);
            assert_eq!(built.unwrap(), serial, "t={threads}");
        }
    }

    #[test]
    fn partition_respects_function() {
        let mut rng = rsv_data::rng(304);
        let rel = Relation::with_rid_payloads(rsv_data::uniform_u32(5_000, &mut rng));
        let e = engine();
        let (out, starts) = e.hash_partition(&rel, 16);
        assert_eq!(out.len(), rel.len());
        assert_eq!(starts.len(), 16);
        for p in 0..16 {
            let end = if p + 1 < 16 {
                starts[p + 1] as usize
            } else {
                out.len()
            };
            for q in starts[p] as usize..end {
                assert_eq!(e.hash_partition_of(out.keys[q], 16), p);
            }
        }
    }

    #[test]
    fn group_by_sum_matches_reference() {
        let mut rng = rsv_data::rng(305);
        let keys: Vec<u32> = rsv_data::uniform_u32(20_000, &mut rng)
            .iter()
            .map(|k| k % 500)
            .collect();
        let rel = Relation::new(keys.clone(), rsv_data::uniform_u32(20_000, &mut rng));
        let rows = engine().group_by_sum(&rel, 500);
        let mut expected: std::collections::HashMap<u32, (u32, u64)> = Default::default();
        for (k, v) in rel.iter() {
            let e = expected.entry(k).or_default();
            e.0 += 1;
            e.1 += u64::from(v);
        }
        assert_eq!(rows.len(), expected.len());
        for (k, c, s) in rows {
            assert_eq!(expected[&k], (c, s), "group {k}");
        }
    }

    #[test]
    fn engine_runs_on_every_backend() {
        for b in Backend::all_available() {
            let e = Engine::with_backend(b);
            let rel = Relation::with_rid_payloads(vec![3, 1, 2]);
            let out = e.select(&rel, 2, 3);
            assert_eq!(out.len(), 2, "backend {}", b.name());
        }
    }
}
