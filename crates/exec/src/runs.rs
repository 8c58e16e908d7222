//! Exact-size, morsel-ordered output for filters whose predicate is too
//! expensive to evaluate twice (a Bloom probe, a decode of compressed
//! blocks).
//!
//! Each worker runs the filter kernel over a claimed morsel into one
//! reused morsel-sized scratch buffer and appends only the qualifiers to
//! its own run buffer. Run buffers grow by fixed-size chunks rather than
//! by reallocation: a doubling `Vec` holds up to twice its rows, and
//! once the allocator recycles that memory between queries all of it is
//! resident. After the scope joins, a prefix sum over the
//! per-morsel run lengths gives every run its offset in exact-size output
//! columns, and each worker copies its own runs there. The output is the
//! sequential filter's for every thread count and morsel size, and no pass
//! over it is serial. (A cheap predicate is better served by counting
//! first and writing straight into the exact output, as
//! `rsv_scan::scan_parallel` does.)

use std::ops::Range;

use crate::morsel::{ExecPolicy, MorselQueue};
use crate::parallel::{parallel_scope, WorkerPanic};
use crate::run::{MemoryBudget, Reservation};
use crate::shared::SharedBuffer;
use crate::EngineError;

/// Bytes per output row: a `u32` key plus a `u32` payload.
const ROW_BYTES: u64 = 8;

/// Rows per run-buffer chunk (256 KiB per column), or the input's rows if
/// fewer. Chunks are filled to capacity — a run may continue in the next
/// chunk — so a run buffer never reallocates and leaves at most one chunk
/// partly empty.
const CHUNK_ROWS: usize = 64 * 1024;

/// `len` qualifiers of morsel `morsel`, starting `at` rows into that
/// morsel's output.
#[derive(Clone, Copy)]
struct Run {
    morsel: usize,
    at: usize,
    len: usize,
}

struct Chunk {
    keys: Vec<u32>,
    pays: Vec<u32>,
    runs: Vec<Run>,
}

/// One worker's qualifiers: the runs of the morsels it claimed, appended
/// in claim order to fixed-size chunks, each held against the budget
/// before it is allocated.
pub(crate) struct RunBuffer {
    chunks: Vec<Chunk>,
    chunk_rows: usize,
    held: Reservation,
}

impl RunBuffer {
    pub(crate) fn new(budget: &MemoryBudget, chunk_rows: usize) -> Result<RunBuffer, EngineError> {
        assert!(chunk_rows > 0, "chunks must hold at least one row");
        Ok(RunBuffer {
            chunks: Vec::new(),
            chunk_rows,
            held: budget.hold(0)?,
        })
    }

    /// Append morsel `morsel`'s qualifiers.
    pub(crate) fn push(
        &mut self,
        morsel: usize,
        keys: &[u32],
        pays: &[u32],
    ) -> Result<(), EngineError> {
        assert_eq!(keys.len(), pays.len(), "run column length mismatch");
        let mut at = 0;
        while at < keys.len() {
            let rows = self.chunk_rows;
            if self.chunks.last().is_none_or(|c| c.keys.len() == rows) {
                self.held.grow(ROW_BYTES * rows as u64)?;
                self.chunks.push(Chunk {
                    keys: Vec::with_capacity(rows),
                    pays: Vec::with_capacity(rows),
                    runs: Vec::new(),
                });
            }
            let Some(c) = self.chunks.last_mut() else {
                unreachable!("a chunk with room was just ensured")
            };
            let len = (rows - c.keys.len()).min(keys.len() - at);
            c.keys.extend_from_slice(&keys[at..at + len]);
            c.pays.extend_from_slice(&pays[at..at + len]);
            c.runs.push(Run { morsel, at, len });
            at += len;
        }
        Ok(())
    }
}

/// Copy the runs of `bufs` into exact-size columns in morsel order, the
/// runs of buffer `i` by worker `i`. Every morsel id must be below
/// `morsels`, and each morsel's runs must be pushed by one
/// [`RunBuffer::push`]. The output is held against `budget` while the
/// runs are alive.
pub(crate) fn concat_runs(
    bufs: &[RunBuffer],
    morsels: usize,
    budget: &MemoryBudget,
) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
    // starts[id + 1] = rows of morsel `id`, then prefix-summed. Each
    // morsel's runs must tile its output from row 0 up, in order, which
    // makes the ranges written below disjoint.
    let mut starts = vec![0usize; morsels + 1];
    let runs = bufs.iter().flat_map(|b| &b.chunks).flat_map(|c| &c.runs);
    for r in runs {
        assert_eq!(
            r.at,
            starts[r.morsel + 1],
            "morsel {} runs overlap",
            r.morsel
        );
        starts[r.morsel + 1] += r.len;
    }
    for i in 0..morsels {
        starts[i + 1] += starts[i];
    }
    let total = starts[morsels];
    let _out = budget.hold(ROW_BYTES * total as u64)?;
    let (ok, op) = (SharedBuffer::zeroed(total), SharedBuffer::zeroed(total));
    parallel_scope(bufs.len().max(1), |ctx| {
        let Some(b) = bufs.get(ctx.thread_id) else {
            return;
        };
        // SAFETY: the runs tile disjoint output ranges (asserted above),
        // each written by the one worker whose buffer holds it; the
        // columns are read only after the scope joins.
        let (k, p) = unsafe { (ok.view_mut(), op.view_mut()) };
        ctx.phase(|| {
            for c in &b.chunks {
                let mut from = 0;
                for r in &c.runs {
                    let dst = starts[r.morsel] + r.at;
                    k[dst..dst + r.len].copy_from_slice(&c.keys[from..from + r.len]);
                    p[dst..dst + r.len].copy_from_slice(&c.pays[from..from + r.len]);
                    from += r.len;
                }
            }
        });
    })
    .map_err(WorkerPanic::into_engine_error)?;
    Ok((ok.into_vec(), op.into_vec()))
}

/// Run a filter over `queue`'s morsels on `policy.threads` workers and
/// return its qualifiers as exact-size `(keys, payloads)` columns in
/// morsel order.
///
/// `kernel(rows, keys, pays)` writes the qualifiers of input rows `rows`
/// to the fronts of `keys` and `pays` (each `rows.len()` long) and returns
/// their count; within a morsel, the kernel's order is kept.
///
/// Per-worker scratch, the run buffers and the output are held against
/// `policy.run`'s budget and released before return on every path. A
/// cancelled run returns [`EngineError::Cancelled`] (workers stop at the
/// next morsel claim), a worker panic [`EngineError::WorkerPanicked`], and
/// a denied reservation [`EngineError::BudgetExceeded`].
pub fn filter_morsels<K>(
    queue: &MorselQueue,
    policy: &ExecPolicy,
    kernel: K,
) -> Result<(Vec<u32>, Vec<u32>), EngineError>
where
    K: Fn(Range<usize>, &mut [u32], &mut [u32]) -> usize + Sync,
{
    let budget = &policy.run.budget;
    let max_len = queue.max_morsel_len();
    let _scratch = budget.hold(ROW_BYTES * (policy.threads * max_len) as u64)?;
    let bufs = parallel_scope(policy.threads, |ctx| {
        let mut out = RunBuffer::new(budget, CHUNK_ROWS.min(queue.tuple_count().max(1)))?;
        let (mut sk, mut sp) = (vec![0u32; max_len], vec![0u32; max_len]);
        for mo in ctx.morsels(queue) {
            ctx.phase(|| {
                let len = mo.range.len();
                let c = kernel(mo.range, &mut sk[..len], &mut sp[..len]);
                out.push(mo.id, &sk[..c], &sp[..c])
            })?;
        }
        Ok(out)
    })
    .map_err(WorkerPanic::into_engine_error)?
    .into_iter()
    .collect::<Result<Vec<_>, EngineError>>()?;
    policy.run.check_cancelled()?;
    concat_runs(&bufs, queue.morsel_count(), budget)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::run::RunContext;

    fn evens(rows: Range<usize>, k: &mut [u32], p: &mut [u32]) -> usize {
        let mut c = 0;
        for i in rows.filter(|i| i % 2 == 0) {
            k[c] = i as u32;
            p[c] = !(i as u32);
            c += 1;
        }
        c
    }

    #[test]
    fn output_is_the_sequential_filter_for_every_schedule() {
        let n = 301;
        let expected: Vec<u32> = (0..n as u32).filter(|i| i % 2 == 0).collect();
        for threads in [1usize, 2, 3] {
            for morsel in [16usize, 50, usize::MAX] {
                let run = RunContext::new().with_memory_limit(1 << 20);
                let policy = ExecPolicy::new(threads)
                    .with_morsel_tuples(morsel)
                    .with_run(run.clone());
                let q = MorselQueue::new(n, &policy, 16);
                let (k, p) = filter_morsels(&q, &policy, evens).unwrap();
                assert_eq!(k, expected, "t={threads} morsel={morsel}");
                assert!(k.iter().zip(&p).all(|(k, p)| *p == !k));
                assert_eq!(run.budget.used(), 0, "t={threads} morsel={morsel}");
            }
        }
    }

    #[test]
    fn empty_input_and_all_empty_morsels() {
        let policy = ExecPolicy::new(2).with_morsel_tuples(16);
        let q = MorselQueue::new(0, &policy, 16);
        assert_eq!(
            filter_morsels(&q, &policy, evens).unwrap(),
            (vec![], vec![])
        );
        let q = MorselQueue::new(100, &policy, 16);
        let none = filter_morsels(&q, &policy, |_, _, _| 0).unwrap();
        assert_eq!(none, (vec![], vec![]));
    }

    #[test]
    fn one_worker_holding_every_run_concatenates_in_morsel_order() {
        // Two 4-row chunks held (64 B), the second run spanning them;
        // output 48 B.
        for (limit, fits) in [(64 + 48, true), (64 + 47, false)] {
            let budget = MemoryBudget::bytes(limit);
            let mut thief = RunBuffer::new(&budget, 4).unwrap();
            // Claimed out of order, with morsel 1 empty.
            thief.push(3, &[30, 31], &[3, 3]).unwrap();
            thief.push(0, &[0], &[0]).unwrap();
            thief.push(1, &[], &[]).unwrap();
            thief.push(2, &[20, 21, 22], &[2, 2, 2]).unwrap();
            let idle = RunBuffer::new(&budget, 4).unwrap();
            let out = concat_runs(&[thief, idle], 4, &budget);
            if fits {
                let (k, p) = out.unwrap();
                assert_eq!(k, [0, 20, 21, 22, 30, 31]);
                assert_eq!(p, [0, 2, 2, 2, 3, 3]);
            } else {
                assert!(matches!(out, Err(EngineError::BudgetExceeded { .. })));
            }
            assert_eq!(budget.used(), 0, "limit {limit}");
        }
    }

    #[test]
    #[should_panic(expected = "morsel 0 runs overlap")]
    fn a_morsel_pushed_twice_is_rejected() {
        let budget = MemoryBudget::unlimited();
        let mut a = RunBuffer::new(&budget, 4).unwrap();
        let mut b = RunBuffer::new(&budget, 4).unwrap();
        a.push(0, &[1], &[1]).unwrap();
        b.push(0, &[2], &[2]).unwrap();
        let _ = concat_runs(&[a, b], 1, &budget);
    }

    #[test]
    fn denied_reservations_release_everything() {
        let policy = ExecPolicy::new(1).with_morsel_tuples(64);
        let q = MorselQueue::new(1_000, &policy, 16);
        let scratch = 8 * q.max_morsel_len() as u64;
        // Denied at the scratch, then at the first run's chunk.
        for limit in [scratch - 1, scratch + 8] {
            let run = RunContext::new().with_memory_limit(limit);
            let policy = policy.clone().with_run(run.clone());
            let err = filter_morsels(&q, &policy, evens).unwrap_err();
            assert!(
                matches!(err, EngineError::BudgetExceeded { .. }),
                "{limit}: {err}"
            );
            assert_eq!(run.budget.used(), 0, "limit {limit}");
        }
    }
}
