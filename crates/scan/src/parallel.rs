//! Morsel-driven parallel selection scan, written once at exact size.
//!
//! A range predicate is cheap next to materialization, so the scan runs in
//! two passes over the same morsels (a [`rsv_exec::MorselQueue`] per
//! pass, identical boundaries):
//!
//! 1. **count** — each morsel's qualifiers are counted from the keys
//!    alone;
//! 2. **write** — a prefix sum over the counts gives every morsel its
//!    offset in exact-size output columns, and the scan kernel writes the
//!    morsel's qualifiers straight into that slice.
//!
//! Qualifiers are therefore in input order — exactly the sequential scan's
//! output for every thread count and morsel size — with no input-sized
//! buffer and no serial pass over the output.

use rsv_exec::{parallel_scope, EngineError, ExecPolicy, MorselQueue, SharedBuffer, WorkerPanic};
use rsv_simd::Backend;

use crate::vector::count_vector;
use crate::{scan, ScanPredicate, ScanVariant};

/// Parallel selection scan with morsel-driven scheduling; returns the
/// qualifying `(keys, payloads)` in input order, each column exactly as
/// long as the qualifier count.
///
/// The write pass runs Algorithm 3
/// ([`ScanVariant::VectorSelStoreIndirect`]), which writes nothing past
/// the qualifier count and so fits each morsel's exact slice (the
/// branchless scalar scan, for one, needs a slot per input row).
///
/// The output columns are held against `policy.run`'s memory budget while
/// they are written. Honours `policy.run`'s cancel token (checked at every
/// morsel claim of both passes) and surfaces worker panics as
/// [`EngineError::WorkerPanicked`].
pub fn scan_parallel(
    backend: Backend,
    keys: &[u32],
    pays: &[u32],
    pred: ScanPredicate,
    policy: &ExecPolicy,
) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    let n = keys.len();
    let t = policy.threads;

    let q = MorselQueue::new(n, policy, 16);
    let counts = SharedBuffer::zeroed(q.morsel_count());
    parallel_scope(t, |ctx| {
        // SAFETY: each morsel writes only its own count slot, and every
        // morsel id is claimed exactly once; reads happen after the join.
        let cs = unsafe { counts.view_mut() };
        for mo in ctx.morsels(&q) {
            ctx.phase(|| {
                cs[mo.id] = rsv_simd::dispatch!(backend, s => {
                    count_vector(s, &keys[mo.range], pred)
                });
            });
        }
    })
    .map_err(WorkerPanic::into_engine_error)?;
    policy.run.check_cancelled()?;

    // starts[id]..starts[id + 1] is morsel `id`'s output slice.
    let mut starts = vec![0usize];
    for c in counts.into_vec() {
        starts.push(starts[starts.len() - 1] + c);
    }
    let total = starts[starts.len() - 1];
    let _out = policy
        .run
        .budget
        .hold(2 * (total * std::mem::size_of::<u32>()) as u64)?;
    let ok = SharedBuffer::zeroed(total);
    let op = SharedBuffer::zeroed(total);
    let q = MorselQueue::new(n, policy, 16);
    parallel_scope(t, |ctx| {
        // SAFETY: each morsel writes only its own slice
        // `starts[id]..starts[id + 1]`, and every morsel id is claimed
        // exactly once; reads happen after the scope joins.
        let (ok, op) = unsafe { (ok.view_mut(), op.view_mut()) };
        for mo in ctx.morsels(&q) {
            let _ = rsv_testkit::failpoint!("scan.morsel");
            ctx.phase(|| {
                let r = mo.range;
                let out = starts[mo.id]..starts[mo.id + 1];
                let c = scan(
                    backend,
                    ScanVariant::VectorSelStoreIndirect,
                    &keys[r.clone()],
                    &pays[r],
                    pred,
                    &mut ok[out.clone()],
                    &mut op[out.clone()],
                );
                assert_eq!(c, out.len(), "scan and count passes disagree");
            });
        }
    })
    .map_err(WorkerPanic::into_engine_error)?;
    policy.run.check_cancelled()?;
    Ok((ok.into_vec(), op.into_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_scan_matches_sequential() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let n = 40_000;
        let keys: Vec<u32> = (0..n).map(|_| next() % 10_000).collect();
        let pays: Vec<u32> = (0..n as u32).collect();
        let pred = ScanPredicate {
            lower: 1_000,
            upper: 4_000,
        };
        let backend = Backend::best();
        let mut ek = vec![0u32; n];
        let mut ep = vec![0u32; n];
        let expect_n = scan(
            backend,
            ScanVariant::ScalarBranching,
            &keys,
            &pays,
            pred,
            &mut ek,
            &mut ep,
        );
        for threads in [1usize, 2, 3, 8] {
            for morsel in [1_000usize, 16 * 1024, usize::MAX] {
                let policy = ExecPolicy::new(threads).with_morsel_tuples(morsel);
                let (gk, gp) = scan_parallel(backend, &keys, &pays, pred, &policy).unwrap();
                assert_eq!(gk, &ek[..expect_n], "t={threads} morsel={morsel}");
                assert_eq!(gp, &ep[..expect_n], "t={threads} morsel={morsel}");
            }
        }
    }

    #[test]
    fn parallel_scan_empty_input() {
        let policy = ExecPolicy::new(4);
        let (ok, op) = scan_parallel(
            Backend::best(),
            &[],
            &[],
            ScanPredicate { lower: 0, upper: 1 },
            &policy,
        )
        .unwrap();
        assert!(ok.is_empty() && op.is_empty());
    }

    #[test]
    fn count_pass_matches_every_tail_length() {
        let pred = ScanPredicate {
            lower: 3,
            upper: 11,
        };
        for backend in Backend::all_available() {
            for n in [0usize, 1, 15, 16, 17, 33, 100] {
                let keys: Vec<u32> = (0..n as u32).map(|i| i * 7 % 19).collect();
                let expected = keys.iter().filter(|&&k| pred.matches(k)).count();
                let got = rsv_simd::dispatch!(backend, s => { count_vector(s, &keys, pred) });
                assert_eq!(got, expected, "{} n={n}", backend.name());
            }
        }
    }
}
