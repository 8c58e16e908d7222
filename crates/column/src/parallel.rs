//! Morsel-driven parallel fused kernels.
//!
//! Both entry points snap interior morsel boundaries to [`BLOCK_LEN`], so
//! every morsel starts on a block boundary and no block is split across
//! workers — each morsel decodes its blocks independently. Results are
//! schedule-independent: the fused scan's per-morsel qualifier runs are
//! concatenated in morsel order into exact-size columns
//! ([`rsv_exec::filter_morsels`]; identical to the sequential scan's
//! output), and the histogram merges per-worker counts by commutative
//! addition.

use rsv_exec::{filter_morsels, parallel_scope, EngineError, ExecPolicy, MorselQueue};
use rsv_partition::PartitionFn;
use rsv_scan::{ScanPredicate, ScanVariant};
use rsv_simd::{Backend, Simd};

use crate::{
    histogram_fused_range_into, reduce_partial, select_fused_range, CompressedColumn, BLOCK_LEN,
};

/// Parallel fused compressed selection scan; returns the qualifying
/// `(keys, payloads)` in input order, each column exactly as long as the
/// qualifier count.
///
/// Decoding is the expensive part, so every block is decoded once: each
/// worker scans a morsel into morsel-sized scratch and keeps only the
/// qualifiers, which are then copied in parallel into the exact output
/// ([`rsv_exec::filter_morsels`], which also holds the scratch, run
/// buffers and output against `policy.run`'s budget). Output matches the
/// sequential [`select_fused`](crate::select_fused) byte for byte at any
/// thread count. A worker panic surfaces as
/// [`EngineError::WorkerPanicked`], a cancelled run as
/// [`EngineError::Cancelled`] and a denied reservation as
/// [`EngineError::BudgetExceeded`].
pub fn select_fused_parallel(
    backend: Backend,
    variant: ScanVariant,
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    pred: ScanPredicate,
    policy: &ExecPolicy,
) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    // Block-aligned morsels: every morsel starts at a multiple of
    // BLOCK_LEN, which select_fused_range requires.
    let q = MorselQueue::new(keys.len(), policy, BLOCK_LEN);
    filter_morsels(&q, policy, |rows, ok, op| {
        select_fused_range(backend, variant, keys, pays, pred, rows, ok, op)
    })
}

/// Parallel fused compressed histogram: per-worker replicated partial
/// counts over block-aligned morsels, merged by addition (commutative, so
/// the result is independent of the steal schedule). A worker panic
/// surfaces as [`EngineError::WorkerPanicked`] and a cancelled run as
/// [`EngineError::Cancelled`].
pub fn histogram_fused_parallel<F: PartitionFn + Send + Sync>(
    backend: Backend,
    col: &CompressedColumn,
    f: F,
    policy: &ExecPolicy,
) -> Result<Vec<u32>, EngineError> {
    let q = MorselQueue::new(col.len(), policy, BLOCK_LEN);
    let hists = parallel_scope(policy.threads, |ctx| {
        rsv_simd::dispatch!(backend, s => {
            let mut partial = vec![0u32; f.fanout() * S::LANES];
            for mo in ctx.morsels(&q) {
                ctx.phase(|| {
                    histogram_fused_range_into(s, col, f, mo.range.clone(), &mut partial);
                });
            }
            reduce_partial(s, &partial, f.fanout())
        })
    })
    .map_err(|wp| wp.into_engine_error())?;
    policy.run.check_cancelled()?;
    let mut hist = vec![0u32; f.fanout()];
    for h in hists {
        for (a, b) in hist.iter_mut().zip(h) {
            *a += b;
        }
    }
    Ok(hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select_fused;
    use rsv_partition::{histogram::histogram_scalar, RadixFn};

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn parallel_fused_scan_matches_sequential() {
        let mut rng = rsv_data::rng(0x5EED);
        let n = 37 * BLOCK_LEN + 451;
        let keys: Vec<u32> = rsv_data::uniform_u32(n, &mut rng)
            .iter()
            .map(|k| k % 10_000)
            .collect();
        let pays: Vec<u32> = (0..n as u32).collect();
        let pred = ScanPredicate {
            lower: 1_000,
            upper: 4_000,
        };
        let backend = Backend::best();
        let ck = CompressedColumn::pack(backend, &keys);
        let cp = CompressedColumn::pack(backend, &pays);
        let variant = ScanVariant::VectorSelStoreIndirect;
        let mut ek = vec![0u32; n];
        let mut ep = vec![0u32; n];
        let en = select_fused(backend, variant, &ck, &cp, pred, &mut ek, &mut ep);
        for threads in [1usize, 2, 3, 8] {
            for morsel in [700usize, 4 * BLOCK_LEN, usize::MAX] {
                let policy = ExecPolicy::new(threads).with_morsel_tuples(morsel);
                let (gk, gp) =
                    select_fused_parallel(backend, variant, &ck, &cp, pred, &policy).unwrap();
                assert_eq!(gk, &ek[..en], "t={threads} morsel={morsel}");
                assert_eq!(gp, &ep[..en], "t={threads} morsel={morsel}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn parallel_fused_histogram_matches_scalar() {
        let mut rng = rsv_data::rng(0x4157);
        let n = 23 * BLOCK_LEN + 77;
        let keys = rsv_data::uniform_u32(n, &mut rng);
        let f = RadixFn::new(20, 9);
        let expected = histogram_scalar(f, &keys);
        let backend = Backend::best();
        let col = CompressedColumn::pack(backend, &keys);
        for threads in [1usize, 2, 8] {
            let policy = ExecPolicy::new(threads).with_morsel_tuples(3 * BLOCK_LEN);
            let got = histogram_fused_parallel(backend, &col, f, &policy).unwrap();
            assert_eq!(got, expected, "t={threads}");
        }
    }

    #[test]
    fn cancelled_run_fails_instead_of_returning_partial_results() {
        let n = 5 * BLOCK_LEN + 3;
        let keys: Vec<u32> = (0..n as u32).collect();
        let backend = Backend::best();
        let col = CompressedColumn::pack(backend, &keys);
        let run = rsv_exec::RunContext::new();
        run.cancel_token().cancel();
        let policy = ExecPolicy::new(2).with_run(run);
        let pred = ScanPredicate {
            lower: 0,
            upper: u32::MAX,
        };
        let err = select_fused_parallel(
            backend,
            ScanVariant::VectorSelStoreIndirect,
            &col,
            &col,
            pred,
            &policy,
        )
        .expect_err("cancelled scan must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        let err = histogram_fused_parallel(backend, &col, RadixFn::new(0, 4), &policy)
            .expect_err("cancelled histogram must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
    }
}
