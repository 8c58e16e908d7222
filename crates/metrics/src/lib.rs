//! Operator-level work metrics: zero-overhead-when-disabled counters for
//! every kernel family in the reproduction.
//!
//! The paper's performance arguments (§4–§9) are claims about *work
//! counts* — lanes active per vector, hash probes per key, cuckoo
//! displacements, conflict-serialization retries, buffer flushes — but
//! wall-clock timing alone cannot explain why a variant wins, nor catch a
//! kernel that silently does twice the work. This crate gives each
//! operator crate a common place to report those counts:
//!
//! * [`Metric`] — the flat counter namespace (plus a few histograms that
//!   live directly on [`Counters`]),
//! * [`MetricSink`] — where per-thread counters are absorbed;
//!   [`NoopSink`] discards everything and [`CountingSink`] accumulates
//!   per-worker [`Counters`] merged slot by slot in thread-id order,
//! * [`collect`] / [`collect_with`] — run a closure with metering
//!   enabled on the current thread (worker threads inherit the flag via
//!   the scheduler in `rsv-exec`) and harvest the counters.
//!
//! # Zero overhead when disabled
//!
//! Recording is gated per *thread*, not globally, so concurrently running
//! tests never observe each other's counters. Kernels hoist one
//! [`enabled`] check out of their hot loops and accumulate into stack
//! locals, flushing once per call; with metering off the cost is one
//! thread-local read per kernel invocation plus a well-predicted branch
//! per loop. With the `noop` cargo feature, [`enabled`] is a constant
//! `false` and every recording function has an empty inline body, so the
//! compiler removes the metered paths entirely — CI's benchmark-parity
//! check compares the two builds to show the default path is already
//! within noise of the compiled-out one.
//!
//! # Determinism classes
//!
//! Counters are classified ([`Metric::class`]) by how reproducible they
//! are, which is what turns them into cross-backend test oracles:
//!
//! * [`MetricClass::Work`] — pure per-tuple work sums (tuples scanned,
//!   hash-chain slots inspected, blocks decoded…). Byte-identical across
//!   SIMD backends *of any lane width* for the same kernel, input and
//!   thread count.
//! * [`MetricClass::WidthDependent`] — deterministic for a fixed lane
//!   width and thread count, but legitimately different between 8- and
//!   16-lane backends (lanes-active histograms, conflict serializations,
//!   staging-buffer flushes).
//! * [`MetricClass::Unstable`] — timing- or schedule-dependent (steals,
//!   phase-latency histograms); never compared.

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::cell::{Cell, RefCell};
use std::sync::{Mutex, MutexGuard};

/// Lanes-active histogram buckets (`0..=32` active lanes per vector).
pub const LANE_BUCKETS: usize = 33;

/// Scan-variant slots for the lanes-active histograms, indexed by the
/// variant's position in `rsv_scan::ScanVariant::ALL`.
pub const SCAN_VARIANTS: usize = 6;

/// Column-width histogram buckets (packed widths `0..=32` bits).
pub const WIDTH_BUCKETS: usize = 33;

/// Log₂-nanosecond buckets for morsel phase latencies.
pub const PHASE_BUCKETS: usize = 40;

/// One named work counter. The discriminant is the index into
/// [`Counters::counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Tuples fed into a selection scan.
    ScanTuplesIn,
    /// Tuples a selection scan emitted (qualifiers).
    ScanTuplesOut,
    /// Keys probed against a linear-probing table.
    LpKeysProbed,
    /// Linear-probe slot inspections (≥ keys probed; the excess is the
    /// chain-walk cost the paper's Figure 7 is about).
    LpProbes,
    /// Keys probed against a double-hashing table.
    DhKeysProbed,
    /// Double-hashing slot inspections.
    DhProbes,
    /// Keys inserted into linear-probing tables.
    LpKeysBuilt,
    /// Lanes that lost the scatter-conflict race in the vertical build
    /// and had to retry (paper §5: "conflicts during building").
    LpBuildConflictRetries,
    /// Keys inserted into cuckoo tables.
    CuckooKeysBuilt,
    /// Cuckoo displacement-loop iterations (kicks) over all inserts.
    CuckooDisplacements,
    /// Keys probed against a Bloom filter.
    BloomKeysProbed,
    /// Bloom filter words fetched (early abort makes this ≪ k per key).
    BloomWordsTouched,
    /// Tuples histogrammed by a partitioning pass.
    PartHistTuples,
    /// Tuples shuffled by a partitioning pass.
    PartShuffleTuples,
    /// Lanes serialized by the scatter-conflict detection (Algorithms
    /// 12/13): lanes whose partition collided inside one vector.
    PartConflictsSerialized,
    /// Full staging-buffer lines flushed with streaming stores.
    PartBufferFlushes,
    /// Bytes written through streaming (non-temporal) stores.
    PartStreamingStoreBytes,
    /// Tuples that left a buffered shuffle through a full-line flush.
    PartTuplesFlushed,
    /// Tuples that left a buffered shuffle through the cleanup pass
    /// (per-partition residues that never filled a line).
    PartTuplesResidual,
    /// Compressed blocks decoded (per-width breakdown in
    /// [`Counters::col_width_blocks`]).
    ColBlocksDecoded,
    /// Radixsort partitioning passes executed.
    SortPasses,
    /// Bytes a radixsort moved between its ping/pong columns.
    SortBytesMoved,
    /// Build-side tuples fed into a hash join.
    JoinBuildTuples,
    /// Probe-side tuples fed into a hash join.
    JoinProbeTuples,
    /// Sum of partitioning-pass fanouts a join executed.
    JoinPartitionFanout,
    /// Morsels claimed from work-stealing queues.
    MorselsClaimed,
    /// Morsels claimed from *another* worker's span.
    MorselsStolen,
    /// Hash-table builds that degraded from cuckoo to linear probing after
    /// exhausting the rehash budget.
    FallbackBuilds,
}

/// Reproducibility class of a counter (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Byte-identical across backends of any lane width (fixed kernel,
    /// input and thread count).
    Work,
    /// Deterministic for a fixed lane width and thread count.
    WidthDependent,
    /// Timing- or schedule-dependent; never compared.
    Unstable,
}

impl Metric {
    /// Number of flat counters.
    pub const COUNT: usize = Metric::FallbackBuilds as usize + 1;

    /// Every counter, in index order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::ScanTuplesIn,
        Metric::ScanTuplesOut,
        Metric::LpKeysProbed,
        Metric::LpProbes,
        Metric::DhKeysProbed,
        Metric::DhProbes,
        Metric::LpKeysBuilt,
        Metric::LpBuildConflictRetries,
        Metric::CuckooKeysBuilt,
        Metric::CuckooDisplacements,
        Metric::BloomKeysProbed,
        Metric::BloomWordsTouched,
        Metric::PartHistTuples,
        Metric::PartShuffleTuples,
        Metric::PartConflictsSerialized,
        Metric::PartBufferFlushes,
        Metric::PartStreamingStoreBytes,
        Metric::PartTuplesFlushed,
        Metric::PartTuplesResidual,
        Metric::ColBlocksDecoded,
        Metric::SortPasses,
        Metric::SortBytesMoved,
        Metric::JoinBuildTuples,
        Metric::JoinProbeTuples,
        Metric::JoinPartitionFanout,
        Metric::MorselsClaimed,
        Metric::MorselsStolen,
        Metric::FallbackBuilds,
    ];

    /// Snake-case label used in JSON snapshots.
    pub fn label(self) -> &'static str {
        match self {
            Metric::ScanTuplesIn => "scan_tuples_in",
            Metric::ScanTuplesOut => "scan_tuples_out",
            Metric::LpKeysProbed => "lp_keys_probed",
            Metric::LpProbes => "lp_probes",
            Metric::DhKeysProbed => "dh_keys_probed",
            Metric::DhProbes => "dh_probes",
            Metric::LpKeysBuilt => "lp_keys_built",
            Metric::LpBuildConflictRetries => "lp_build_conflict_retries",
            Metric::CuckooKeysBuilt => "cuckoo_keys_built",
            Metric::CuckooDisplacements => "cuckoo_displacements",
            Metric::BloomKeysProbed => "bloom_keys_probed",
            Metric::BloomWordsTouched => "bloom_words_touched",
            Metric::PartHistTuples => "part_hist_tuples",
            Metric::PartShuffleTuples => "part_shuffle_tuples",
            Metric::PartConflictsSerialized => "part_conflicts_serialized",
            Metric::PartBufferFlushes => "part_buffer_flushes",
            Metric::PartStreamingStoreBytes => "part_streaming_store_bytes",
            Metric::PartTuplesFlushed => "part_tuples_flushed",
            Metric::PartTuplesResidual => "part_tuples_residual",
            Metric::ColBlocksDecoded => "col_blocks_decoded",
            Metric::SortPasses => "sort_passes",
            Metric::SortBytesMoved => "sort_bytes_moved",
            Metric::JoinBuildTuples => "join_build_tuples",
            Metric::JoinProbeTuples => "join_probe_tuples",
            Metric::JoinPartitionFanout => "join_partition_fanout",
            Metric::MorselsClaimed => "morsels_claimed",
            Metric::MorselsStolen => "morsels_stolen",
            Metric::FallbackBuilds => "fallback_builds",
        }
    }

    /// The counter's reproducibility class.
    pub fn class(self) -> MetricClass {
        use Metric::*;
        match self {
            ScanTuplesIn | ScanTuplesOut | LpKeysProbed | LpProbes | DhKeysProbed | DhProbes
            | LpKeysBuilt | CuckooKeysBuilt | BloomKeysProbed | BloomWordsTouched
            | PartHistTuples | PartShuffleTuples | ColBlocksDecoded | SortPasses
            | SortBytesMoved | JoinBuildTuples | JoinProbeTuples | JoinPartitionFanout => {
                MetricClass::Work
            }
            LpBuildConflictRetries
            | CuckooDisplacements
            | PartConflictsSerialized
            | PartBufferFlushes
            | PartStreamingStoreBytes
            | PartTuplesFlushed
            | PartTuplesResidual
            | MorselsClaimed
            | FallbackBuilds => MetricClass::WidthDependent,
            MorselsStolen => MetricClass::Unstable,
        }
    }
}

/// One thread's worth of counters: the flat [`Metric`] counts plus the
/// histograms that need more than a single cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Flat counters, indexed by `Metric as usize`.
    pub counts: [u64; Metric::COUNT],
    /// Lanes-active histogram per scan variant: `scan_lanes[v][a]` counts
    /// vectors of variant `v` (index in `ScanVariant::ALL`) that had `a`
    /// predicate-passing lanes.
    pub scan_lanes: [[u64; LANE_BUCKETS]; SCAN_VARIANTS],
    /// Compressed blocks decoded per packed bit width.
    pub col_width_blocks: [u64; WIDTH_BUCKETS],
    /// Morsel phase latencies in log₂-nanosecond buckets (class
    /// [`MetricClass::Unstable`]: never compared, only reported).
    pub phase_ns: [u64; PHASE_BUCKETS],
}

impl Counters {
    /// All-zero counters.
    pub const fn new() -> Counters {
        Counters {
            counts: [0; Metric::COUNT],
            scan_lanes: [[0; LANE_BUCKETS]; SCAN_VARIANTS],
            col_width_blocks: [0; WIDTH_BUCKETS],
            phase_ns: [0; PHASE_BUCKETS],
        }
    }

    /// The value of one flat counter.
    pub fn get(&self, m: Metric) -> u64 {
        self.counts[m as usize]
    }

    /// Add `n` to one flat counter.
    pub fn bump(&mut self, m: Metric, n: u64) {
        self.counts[m as usize] += n;
    }

    /// Element-wise accumulate `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (av, bv) in self.scan_lanes.iter_mut().zip(&other.scan_lanes) {
            for (a, b) in av.iter_mut().zip(bv) {
                *a += b;
            }
        }
        for (a, b) in self
            .col_width_blocks
            .iter_mut()
            .zip(&other.col_width_blocks)
        {
            *a += b;
        }
        for (a, b) in self.phase_ns.iter_mut().zip(&other.phase_ns) {
            *a += b;
        }
    }

    /// Reset every counter to zero.
    pub fn clear(&mut self) {
        *self = Counters::new();
    }

    /// `true` when nothing was recorded.
    pub fn is_zero(&self) -> bool {
        self == &Counters::new()
    }

    /// Canonical little-endian bytes of the [`MetricClass::Work`]
    /// counters (including the per-width block histogram, whose buckets
    /// are fixed by the canonical 16-lane block format). Byte-identical
    /// across backends of any lane width.
    pub fn work_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for m in Metric::ALL {
            if m.class() == MetricClass::Work {
                out.extend_from_slice(&self.get(m).to_le_bytes());
            }
        }
        for b in self.col_width_blocks {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    /// Canonical bytes of every deterministic counter: the work bytes
    /// plus the width-dependent counters and the lanes-active histograms.
    /// Byte-identical across backends with the *same* lane width.
    pub fn deterministic_bytes(&self) -> Vec<u8> {
        let mut out = self.work_bytes();
        for m in Metric::ALL {
            if m.class() == MetricClass::WidthDependent {
                out.extend_from_slice(&self.get(m).to_le_bytes());
            }
        }
        for v in &self.scan_lanes {
            for b in v {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        out
    }

    /// Compact JSON object in the style of the bench harness rows: flat
    /// counters by label (zero counters omitted), then the non-empty
    /// histograms.
    pub fn to_json(&self) -> String {
        fn trim(h: &[u64]) -> &[u64] {
            let last = h.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            &h[..last]
        }
        fn put_array(out: &mut String, vals: &[u64]) {
            out.push('[');
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
            out.push(']');
        }
        let mut out = String::from("{");
        let mut first = true;
        let mut field = |out: &mut String, name: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
        };
        for m in Metric::ALL {
            let v = self.get(m);
            if v != 0 {
                field(&mut out, m.label());
                out.push_str(&v.to_string());
            }
        }
        if self.scan_lanes.iter().any(|v| v.iter().any(|&b| b != 0)) {
            field(&mut out, "scan_lanes");
            out.push('{');
            let mut first_v = true;
            for (vi, v) in self.scan_lanes.iter().enumerate() {
                let t = trim(v);
                if t.is_empty() {
                    continue;
                }
                if !first_v {
                    out.push(',');
                }
                first_v = false;
                out.push_str(&format!("\"{vi}\":"));
                put_array(&mut out, t);
            }
            out.push('}');
        }
        if self.col_width_blocks.iter().any(|&b| b != 0) {
            field(&mut out, "col_width_blocks");
            put_array(&mut out, trim(&self.col_width_blocks));
        }
        if self.phase_ns.iter().any(|&b| b != 0) {
            field(&mut out, "phase_ns_log2");
            put_array(&mut out, trim(&self.phase_ns));
        }
        out.push('}');
        out
    }
}

impl Default for Counters {
    fn default() -> Counters {
        Counters::new()
    }
}

/// A destination for per-thread counter flushes.
pub trait MetricSink {
    /// Absorb the counters one worker accumulated. `thread_id` is the
    /// worker's slot, in the scheduler's thread-id order.
    fn absorb(&mut self, thread_id: usize, c: &Counters);

    /// Whether running under this sink should record at all. The default
    /// is `true`; [`NoopSink`] returns `false` so [`collect_with`] runs
    /// the closure with metering disabled.
    fn metered(&self) -> bool {
        true
    }
}

/// Discards everything: `absorb` has an empty inline body and `metered`
/// is `false`, so a [`collect_with`] run under a `NoopSink` records
/// nothing and the per-kernel metered branches stay untaken.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl MetricSink for NoopSink {
    #[inline(always)]
    fn absorb(&mut self, _: usize, _: &Counters) {}

    #[inline(always)]
    fn metered(&self) -> bool {
        false
    }
}

/// Per-thread counters, merged worker by worker: slot `i` accumulates
/// everything worker `i` flushed, and [`CountingSink::merge`] folds
/// another region's sink in by matching slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// One entry per worker, in thread-id order.
    pub workers: Vec<Counters>,
}

impl CountingSink {
    /// An empty sink.
    pub const fn new() -> CountingSink {
        CountingSink {
            workers: Vec::new(),
        }
    }

    /// Fold another sink into this one, worker by worker (commutative and
    /// associative, with `CountingSink::default()` as identity — see the
    /// property tests).
    pub fn merge(&mut self, other: &CountingSink) {
        if self.workers.len() < other.workers.len() {
            self.workers.resize(other.workers.len(), Counters::new());
        }
        for (into, from) in self.workers.iter_mut().zip(&other.workers) {
            into.add(from);
        }
    }

    /// Every worker's counters summed into one.
    pub fn total(&self) -> Counters {
        let mut t = Counters::new();
        for w in &self.workers {
            t.add(w);
        }
        t
    }

    /// Drop trailing all-zero worker slots (merging sinks from regions
    /// with different thread counts leaves empty tails).
    pub fn trim(&mut self) {
        while self.workers.last().is_some_and(|w| w.is_zero()) {
            self.workers.pop();
        }
    }
}

impl MetricSink for CountingSink {
    fn absorb(&mut self, thread_id: usize, c: &Counters) {
        if self.workers.len() <= thread_id {
            self.workers.resize(thread_id + 1, Counters::new());
        }
        self.workers[thread_id].add(c);
    }
}

// ---------------------------------------------------------------------
// Thread-scoped recording machinery.
// ---------------------------------------------------------------------

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static LOCAL: RefCell<Counters> = const { RefCell::new(Counters::new()) };
}

/// The collection target live sessions flush into. Guarded separately
/// from [`SESSION`] so worker threads can flush while the session lock
/// is held by the session owner.
static DATA: Mutex<CountingSink> = Mutex::new(CountingSink::new());

/// Serializes [`collect`] sessions: `cargo test` runs tests on many
/// threads of one process, and two concurrent sessions would mix their
/// counters in [`DATA`].
static SESSION: Mutex<()> = Mutex::new(());

/// Lock that shrugs off poisoning: a panicking metered test must not take
/// every later session down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Is metering enabled on the current thread? Kernels hoist this out of
/// their hot loops; with the `noop` feature it is a constant `false`.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "noop")]
    {
        false
    }
    #[cfg(not(feature = "noop"))]
    {
        ENABLED.with(|e| e.get())
    }
}

/// Set the current thread's metering flag. Schedulers capture
/// [`enabled`] before spawning workers and mirror it into each worker so
/// metering follows the session's call tree and nothing else.
#[inline]
pub fn set_thread_metering(on: bool) {
    #[cfg(feature = "noop")]
    {
        let _ = on;
    }
    #[cfg(not(feature = "noop"))]
    {
        ENABLED.with(|e| e.set(on));
    }
}

/// Add `n` to a flat counter (no-op when metering is off).
#[inline]
pub fn count(m: Metric, n: u64) {
    #[cfg(feature = "noop")]
    {
        let _ = (m, n);
    }
    #[cfg(not(feature = "noop"))]
    {
        if enabled() && n != 0 {
            LOCAL.with(|c| c.borrow_mut().counts[m as usize] += n);
        }
    }
}

/// Accumulate a kernel-local lanes-active histogram for one scan variant
/// (`variant` indexes `ScanVariant::ALL`).
#[inline]
pub fn add_scan_lanes(variant: usize, hist: &[u64; LANE_BUCKETS]) {
    #[cfg(feature = "noop")]
    {
        let _ = (variant, hist);
    }
    #[cfg(not(feature = "noop"))]
    {
        if enabled() {
            LOCAL.with(|c| {
                let mut c = c.borrow_mut();
                for (a, b) in c.scan_lanes[variant].iter_mut().zip(hist) {
                    *a += b;
                }
            });
        }
    }
}

/// Count `n` decoded blocks of packed width `width` (also bumps
/// [`Metric::ColBlocksDecoded`]).
#[inline]
pub fn count_blocks_decoded(width: usize, n: u64) {
    #[cfg(feature = "noop")]
    {
        let _ = (width, n);
    }
    #[cfg(not(feature = "noop"))]
    {
        if enabled() && n != 0 {
            LOCAL.with(|c| {
                let mut c = c.borrow_mut();
                c.counts[Metric::ColBlocksDecoded as usize] += n;
                c.col_width_blocks[width.min(WIDTH_BUCKETS - 1)] += n;
            });
        }
    }
}

/// Record one morsel phase latency into the log₂-nanosecond histogram.
#[inline]
pub fn record_phase_ns(ns: u64) {
    #[cfg(feature = "noop")]
    {
        let _ = ns;
    }
    #[cfg(not(feature = "noop"))]
    {
        if enabled() {
            let bucket = (64 - ns.leading_zeros() as usize).min(PHASE_BUCKETS - 1);
            LOCAL.with(|c| c.borrow_mut().phase_ns[bucket] += 1);
        }
    }
}

/// Flush the current thread's counters into the live session as worker
/// `thread_id`, clearing the thread-local accumulator. Called by the
/// scheduler when a worker finishes and by sessions on the calling
/// thread.
pub fn flush_worker(thread_id: usize) {
    #[cfg(feature = "noop")]
    {
        let _ = thread_id;
    }
    #[cfg(not(feature = "noop"))]
    {
        if !enabled() {
            return;
        }
        LOCAL.with(|c| {
            let mut c = c.borrow_mut();
            if !c.is_zero() {
                lock(&DATA).absorb(thread_id, &c);
                c.clear();
            }
        });
    }
}

/// Restores the thread flag (and drops stale thread-local counts) even
/// when the metered closure panics.
struct SessionReset {
    prev: bool,
}

impl Drop for SessionReset {
    fn drop(&mut self) {
        LOCAL.with(|c| c.borrow_mut().clear());
        set_thread_metering(self.prev);
    }
}

thread_local! {
    /// This thread's session nesting depth; a nested [`collect`] (e.g.
    /// `Engine::profile` inside a bench harness metered re-run) must not
    /// re-acquire [`SESSION`], which it transitively holds.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Decrements [`DEPTH`] even when the metered closure panics.
struct DepthGuard;

impl Drop for DepthGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Run `f` with metering enabled on this thread (and, through the
/// scheduler, on every worker it spawns), returning `f`'s result and the
/// per-worker counters. Sessions are serialized process-wide; ambient
/// counters recorded on this thread before the session are discarded.
///
/// Sessions nest: a `collect` inside a metered closure parks the outer
/// session's partial sink (after flushing this thread's pending counts
/// into it), harvests its own, and restores the outer sink — the inner
/// run's counts appear only in the inner result, not in the outer total.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, CountingSink) {
    let nested = DEPTH.with(|d| {
        let n = d.get();
        d.set(n + 1);
        n > 0
    });
    let _depth = DepthGuard;
    let _session = if nested { None } else { Some(lock(&SESSION)) };
    let saved = if nested {
        flush_worker(0);
        Some(std::mem::take(&mut *lock(&DATA)))
    } else {
        None
    };
    let reset = SessionReset { prev: enabled() };
    LOCAL.with(|c| c.borrow_mut().clear());
    lock(&DATA).workers.clear();
    set_thread_metering(true);
    let r = f();
    flush_worker(0);
    drop(reset);
    let mut sink = std::mem::take(&mut *lock(&DATA));
    sink.trim();
    if let Some(saved) = saved {
        *lock(&DATA) = saved;
    }
    (r, sink)
}

/// Run `f` under an arbitrary [`MetricSink`]. A sink whose
/// [`MetricSink::metered`] is `false` (e.g. [`NoopSink`]) runs `f` with
/// metering disabled and absorbs nothing; otherwise this is [`collect`]
/// with the harvested workers handed to `sink`.
pub fn collect_with<S: MetricSink, R>(sink: &mut S, f: impl FnOnce() -> R) -> R {
    if !sink.metered() {
        return f();
    }
    let (r, data) = collect(f);
    for (id, w) in data.workers.iter().enumerate() {
        sink.absorb(id, w);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_clear() {
        let mut c = Counters::new();
        c.bump(Metric::ScanTuplesIn, 10);
        c.bump(Metric::ScanTuplesIn, 5);
        c.scan_lanes[2][7] += 3;
        assert_eq!(c.get(Metric::ScanTuplesIn), 15);
        let mut d = Counters::new();
        d.add(&c);
        d.add(&c);
        assert_eq!(d.get(Metric::ScanTuplesIn), 30);
        assert_eq!(d.scan_lanes[2][7], 6);
        d.clear();
        assert!(d.is_zero());
    }

    #[test]
    fn sink_absorbs_by_worker_slot() {
        let mut s = CountingSink::new();
        let mut c = Counters::new();
        c.bump(Metric::LpProbes, 4);
        s.absorb(2, &c);
        s.absorb(0, &c);
        s.absorb(2, &c);
        assert_eq!(s.workers.len(), 3);
        assert_eq!(s.workers[0].get(Metric::LpProbes), 4);
        assert_eq!(s.workers[1].get(Metric::LpProbes), 0);
        assert_eq!(s.workers[2].get(Metric::LpProbes), 8);
        assert_eq!(s.total().get(Metric::LpProbes), 12);
    }

    #[test]
    fn every_metric_has_distinct_label_and_index() {
        let mut seen = std::collections::HashSet::new();
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "discriminant order");
            assert!(seen.insert(m.label()), "duplicate label {}", m.label());
        }
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn collect_harvests_only_session_counts() {
        count(Metric::ScanTuplesIn, 999); // ambient, metering off: dropped
        let ((), sink) = collect(|| {
            count(Metric::ScanTuplesIn, 7);
            count(Metric::ScanTuplesOut, 3);
        });
        assert_eq!(sink.total().get(Metric::ScanTuplesIn), 7);
        assert_eq!(sink.total().get(Metric::ScanTuplesOut), 3);
        assert!(!enabled(), "metering flag restored");
        let ((), sink2) = collect(|| count(Metric::LpProbes, 1));
        assert_eq!(sink2.total().get(Metric::ScanTuplesIn), 0, "no bleed");
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn noop_sink_runs_unmetered() {
        let mut noop = NoopSink;
        collect_with(&mut noop, || {
            assert!(!enabled());
            count(Metric::ScanTuplesIn, 5);
        });
        let mut counting = CountingSink::new();
        collect_with(&mut counting, || {
            assert!(enabled());
            count(Metric::ScanTuplesIn, 5);
        });
        assert_eq!(counting.total().get(Metric::ScanTuplesIn), 5);
    }

    /// A `collect` inside a metered closure (bench harness re-run around
    /// `Engine::profile`) must neither deadlock on the session lock nor
    /// leak its counts into the outer session's total.
    #[cfg(not(feature = "noop"))]
    #[test]
    fn nested_sessions_do_not_deadlock_or_leak() {
        let ((), outer) = collect(|| {
            count(Metric::ScanTuplesIn, 5);
            let ((), inner) = collect(|| count(Metric::ScanTuplesIn, 7));
            assert_eq!(inner.total().get(Metric::ScanTuplesIn), 7);
            count(Metric::ScanTuplesIn, 11);
        });
        assert_eq!(outer.total().get(Metric::ScanTuplesIn), 16);
        assert!(!enabled(), "metering flag restored");
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn panic_in_session_restores_flag() {
        let r = std::panic::catch_unwind(|| {
            let _ = collect(|| -> () { panic!("boom") });
        });
        assert!(r.is_err());
        assert!(!enabled(), "flag restored after panic");
        let ((), sink) = collect(|| count(Metric::ScanTuplesIn, 1));
        assert_eq!(sink.total().get(Metric::ScanTuplesIn), 1);
    }

    #[test]
    fn json_snapshot_shape() {
        let mut c = Counters::new();
        c.bump(Metric::ScanTuplesIn, 100);
        c.bump(Metric::ScanTuplesOut, 40);
        c.scan_lanes[5][3] = 2;
        let j = c.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"scan_tuples_in\":100"), "{j}");
        assert!(j.contains("\"scan_tuples_out\":40"), "{j}");
        assert!(j.contains("\"scan_lanes\":{\"5\":[0,0,0,2]}"), "{j}");
        assert!(!j.contains("lp_probes"), "zero counters omitted: {j}");
    }

    #[test]
    fn work_bytes_ignore_width_dependent_counters() {
        let mut a = Counters::new();
        let mut b = Counters::new();
        a.bump(Metric::ScanTuplesIn, 10);
        b.bump(Metric::ScanTuplesIn, 10);
        b.bump(Metric::PartBufferFlushes, 5); // width-dependent
        b.scan_lanes[2][8] = 1; // width-dependent
        b.phase_ns[10] = 1; // unstable
        assert_eq!(a.work_bytes(), b.work_bytes());
        assert_ne!(a.deterministic_bytes(), b.deterministic_bytes());
    }
}
