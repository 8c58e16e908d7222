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
    expect_infallible, parallel_scope_stats, parallel_scope_try, ExecPolicy, MorselQueue,
    SharedBuffer, DEFAULT_MORSEL_TUPLES,
};
use rsv_hashtab::GroupAggTable;
use rsv_partition::twopass::MAX_DIRECT_FANOUT;
use rsv_partition::PartitionFn;
use rsv_scan::{ScanPredicate, ScanVariant};
use rsv_simd::dispatch;

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

    fn policy(&self) -> ExecPolicy {
        ExecPolicy::new(self.threads).with_morsel_tuples(self.morsel_tuples)
    }

    fn policy_with(&self, run: &RunContext) -> ExecPolicy {
        self.policy().with_run(run.clone())
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
        let pred = ScanPredicate { lower, upper };
        let mut out_keys = vec![0u32; rel.len()];
        let mut out_pays = vec![0u32; rel.len()];
        let (n, _) = rsv_scan::scan_parallel(
            self.backend,
            ScanVariant::VectorSelStoreIndirect,
            &rel.keys,
            &rel.payloads,
            pred,
            &mut out_keys,
            &mut out_pays,
            &self.policy(),
        );
        out_keys.truncate(n);
        out_pays.truncate(n);
        Relation::new(out_keys, out_pays)
    }

    /// Fallible [`Engine::select`] under a [`RunContext`]: the output
    /// buffers are gated by the run's memory budget, cancellation is
    /// observed at morsel-claim boundaries (so the latency from
    /// [`CancelToken::cancel`] to return is bounded by one morsel), and a
    /// worker panic surfaces as [`EngineError::WorkerPanicked`] instead of
    /// unwinding through the caller.
    pub fn try_select(
        &self,
        rel: &Relation,
        lower: u32,
        upper: u32,
        run: &RunContext,
    ) -> Result<Relation, EngineError> {
        let pred = ScanPredicate { lower, upper };
        let out_bytes = 2 * (rel.len() as u64) * std::mem::size_of::<u32>() as u64;
        run.reserve(out_bytes)?;
        let mut out_keys = vec![0u32; rel.len()];
        let mut out_pays = vec![0u32; rel.len()];
        let r = rsv_scan::scan_parallel_try(
            self.backend,
            ScanVariant::VectorSelStoreIndirect,
            &rel.keys,
            &rel.payloads,
            pred,
            &mut out_keys,
            &mut out_pays,
            &self.policy_with(run),
        );
        run.budget.release(out_bytes);
        let (n, _) = r?;
        out_keys.truncate(n);
        out_pays.truncate(n);
        Ok(Relation::new(out_keys, out_pays))
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
        let pred = ScanPredicate { lower, upper };
        let mut out_keys = vec![0u32; rel.len()];
        let mut out_pays = vec![0u32; rel.len()];
        let (n, _) = rsv_column::select_fused_parallel(
            self.backend,
            ScanVariant::VectorSelStoreIndirect,
            &rel.keys,
            &rel.payloads,
            pred,
            &mut out_keys,
            &mut out_pays,
            &self.policy(),
        );
        out_keys.truncate(n);
        out_pays.truncate(n);
        Relation::new(out_keys, out_pays)
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
        let policy = self.policy();
        dispatch!(self.backend, s => {
            match variant {
                JoinVariant::NoPartition => {
                    rsv_join::join_no_partition_policy(s, true, inner, outer, &policy).0
                }
                JoinVariant::MinPartition => {
                    rsv_join::join_min_partition_policy(s, true, inner, outer, &policy).0
                }
                JoinVariant::MaxPartition => {
                    rsv_join::join_max_partition_policy(
                        s, true, inner, outer, &policy, rsv_join::DEFAULT_PART_TUPLES,
                    ).0
                }
            }
        })
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
                    rsv_join::join_no_partition_policy_try(s, true, inner, outer, &policy)
                        .map(|r| r.0)
                }
                JoinVariant::MinPartition => {
                    rsv_join::join_min_partition_policy_try(s, true, inner, outer, &policy)
                        .map(|r| r.0)
                }
                JoinVariant::MaxPartition => {
                    rsv_join::join_max_partition_policy_try(
                        s, true, inner, outer, &policy, rsv_join::DEFAULT_PART_TUPLES,
                    ).map(|r| r.0)
                }
            }
        })
    }

    /// Bloom-filter semi-join (paper §6): keep the tuples of `rel` whose
    /// key is (probably) present in `filter_keys`. Probing is
    /// morsel-parallel; qualifiers keep input order.
    pub fn bloom_semijoin(&self, rel: &Relation, filter_keys: &[u32]) -> Relation {
        let mut filter = BloomFilter::new(filter_keys.len(), 10, 5);
        filter.build(filter_keys);
        let n = rel.len();
        let q = MorselQueue::new(n, &self.policy(), 16);
        let m = q.morsel_count();
        let positions: Vec<u32> = (0..n as u32).collect();
        let counts = SharedBuffer::from_vec(vec![0usize; m]);
        let ok_buf = SharedBuffer::from_vec(vec![0u32; n]);
        let oi_buf = SharedBuffer::from_vec(vec![0u32; n]);
        let filter_ref = &filter;
        parallel_scope_stats(self.threads, |ctx| {
            // SAFETY: each morsel writes only the output region at its own
            // input offsets plus its own count slot; reads happen after
            // the scope joins.
            let (ok, oi, cs) = unsafe { (ok_buf.view_mut(), oi_buf.view_mut(), counts.view_mut()) };
            for mo in ctx.morsels(&q) {
                ctx.phase("bloom-probe", || {
                    let r = mo.range.clone();
                    // probe with the input *position* as the payload: the
                    // vectorized probe recirculates partially-checked
                    // lanes and so emits qualifiers out of input order —
                    // the positions let us restore it below.
                    cs[mo.id] = dispatch!(self.backend, s => {
                        filter_ref.probe_vector(
                            s,
                            &rel.keys[r.clone()],
                            &positions[r.clone()],
                            &mut ok[r.clone()],
                            &mut oi[r],
                        )
                    });
                });
            }
        });
        // Compact the per-morsel qualifier runs in morsel order (runs only
        // move left, so front-to-back copies never clobber a pending run).
        let counts = counts.into_vec();
        let mut idxs = oi_buf.into_vec();
        drop(ok_buf);
        let mut dest = 0usize;
        for (id, &c) in counts.iter().enumerate() {
            let src = q.range_of(id).start;
            if src != dest {
                idxs.copy_within(src..src + c, dest);
            }
            dest += c;
        }
        idxs.truncate(dest);
        // Restore strict input order: positions are unique, so the sorted
        // qualifier set — and therefore the output — is byte-identical
        // for every thread count and morsel size.
        idxs.sort_unstable();
        let out_keys: Vec<u32> = idxs.iter().map(|&i| rel.keys[i as usize]).collect();
        let out_pays: Vec<u32> = idxs.iter().map(|&i| rel.payloads[i as usize]).collect();
        Relation::new(out_keys, out_pays)
    }

    /// Stable LSB radixsort by key (paper §8).
    pub fn sort(&self, rel: &mut Relation) {
        let cfg = self.sort_config();
        let mut keys = std::mem::take(&mut rel.keys);
        let mut pays = std::mem::take(&mut rel.payloads);
        dispatch!(self.backend, s => {
            rsv_sort::lsb_radixsort_vector(s, &mut keys, &mut pays, &cfg)
        });
        rel.keys = keys;
        rel.payloads = pays;
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
            rsv_sort::radixsort_pairs_try(s, true, &mut keys, &mut pays, &cfg, run)
        });
        rel.keys = keys;
        rel.payloads = pays;
        r.map(|_| ())
    }

    /// Hash-partition a relation into `fanout` parts (paper §7, buffered
    /// shuffling), morsel-parallel and stable. Returns the partitioned
    /// relation and the partition start offsets.
    ///
    /// Fanouts past [`rsv_partition::twopass::MAX_DIRECT_FANOUT`] degrade
    /// transparently to a two-pass decomposition (the single-pass staging
    /// buffers would outgrow the cache) with byte-identical output.
    pub fn hash_partition(&self, rel: &Relation, fanout: usize) -> (Relation, Vec<u32>) {
        let f = rsv_partition::HashFn::new(fanout);
        let mut out_keys = vec![0u32; rel.len()];
        let mut out_pays = vec![0u32; rel.len()];
        let pass = dispatch!(self.backend, s => {
            rsv_partition::twopass::hash_partition_twopass(
                s, true, f, &rel.keys, &rel.payloads, &mut out_keys, &mut out_pays,
                &self.policy(), MAX_DIRECT_FANOUT,
            ).0
        });
        (Relation::new(out_keys, out_pays), pass.partition_starts)
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
            rsv_partition::twopass::hash_partition_twopass_try(
                s, true, f, &rel.keys, &rel.payloads, &mut out_keys, &mut out_pays,
                &self.policy_with(run), MAX_DIRECT_FANOUT,
            )
        });
        run.budget.release(out_bytes);
        let (pass, _) = r?;
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
        let scope = parallel_scope_try(self.threads, |ctx| {
            let mut table = GroupAggTable::new(capacity, 0.5);
            for mo in ctx.morsels(&q) {
                ctx.phase("aggregate", || {
                    let r = mo.range.clone();
                    dispatch!(self.backend, s => {
                        table.update_vector(s, &rel.keys[r.clone()], &rel.payloads[r])
                    });
                });
            }
            table
        });
        let tables = match scope {
            Ok((tables, _)) => tables,
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
        let drained = parallel_scope_try(tables.len(), |ctx| {
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
            ctx.phase("drain", || {
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
                rsv_sort::radixsort_pairs_try(s, true, &mut keys, &mut rows, &cfg, run)
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
