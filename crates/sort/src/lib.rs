//! LSB radixsort (paper Section 8).
//!
//! "Large-scale sorting is synonymous to partitioning": least-significant-
//! bit radixsort is a sequence of *stable* partitioning passes over the
//! radix of each key, and the paper's fastest method for 32-bit keys. Each
//! pass runs histogram generation and buffered shuffling — shared-nothing
//! across morsels claimed from a work-stealing queue (see
//! [`rsv_exec::MorselQueue`]), interleaving the partition outputs through
//! a global prefix sum over all morsels' histograms. Because every pass is
//! stable and keyed by morsel input order, the sorted output is
//! byte-identical for any thread count and morsel size.
//!
//! * [`radixsort_pairs`] — key + one payload column under a
//!   [`RunContext`], the one fallible entry point,
//! * [`lsb_radixsort_scalar`] / [`lsb_radixsort_vector`] — its infallible
//!   Figure 14 kernels, any thread count,
//! * [`lsb_radixsort_keys_scalar`] / [`lsb_radixsort_keys_vector`] —
//!   key-only sorting,
//! * [`multicol::lsb_radixsort_multicol`] — key + arbitrary payload
//!   columns of mixed widths via destination replay (Figure 18).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod diff;
pub mod multicol;

use rsv_exec::{
    expect_infallible, parallel_scope, EngineError, ExecPolicy, MorselQueue, RunContext,
    SharedBuffer, SlotMap, DEFAULT_MORSEL_TUPLES,
};
use rsv_partition::histogram::{histogram_scalar, histogram_vector_replicated};
use rsv_partition::parallel::{interleaved_offsets, partition_pass_parallel};
use rsv_partition::shuffle::scalar_slots;
use rsv_partition::{PartitionFn, RadixFn};
use rsv_simd::Simd;

/// Radixsort tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SortConfig {
    /// Radix bits per pass (the paper's optimal fanout is 5–8 bits).
    pub radix_bits: u32,
    /// Worker threads.
    pub threads: usize,
    /// Tuples per scheduling morsel (`usize::MAX` = the paper's static
    /// equal split). Does not affect the sorted output.
    pub morsel_tuples: usize,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            radix_bits: 8,
            threads: 1,
            morsel_tuples: DEFAULT_MORSEL_TUPLES,
        }
    }
}

impl SortConfig {
    fn passes(&self) -> u32 {
        assert!(
            self.radix_bits >= 1 && self.radix_bits <= 16,
            "radix bits must be in 1..=16"
        );
        assert!(self.threads >= 1, "need at least one thread");
        32u32.div_ceil(self.radix_bits)
    }

    fn pass_fn(&self, pass: u32) -> RadixFn {
        let shift = pass * self.radix_bits;
        RadixFn::new(shift, self.radix_bits.min(32 - shift))
    }

    fn policy(&self) -> ExecPolicy {
        ExecPolicy::new(self.threads).with_morsel_tuples(self.morsel_tuples)
    }
}

/// Parallel LSB radixsort of `(key, payload)` pairs under a [`RunContext`]:
/// cancellation is observed at morsel-claim boundaries of every pass,
/// worker panics surface as [`EngineError::WorkerPanicked`], and the
/// ping-pong scratch columns are gated by the run's memory budget. On
/// error the columns keep their length but hold unspecified tuple order.
pub fn radixsort_pairs<S: Simd>(
    s: S,
    vectorized: bool,
    keys: &mut Vec<u32>,
    pays: &mut Vec<u32>,
    cfg: &SortConfig,
    run: &RunContext,
) -> Result<(), EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    let n = keys.len();
    let policy = cfg.policy().with_run(run.clone());
    let scratch_bytes = 2 * (n as u64) * std::mem::size_of::<u32>() as u64;
    run.reserve(scratch_bytes)?;
    let mut src_k = std::mem::take(keys);
    let mut src_p = std::mem::take(pays);
    let mut dst_k = vec![0u32; n];
    let mut dst_p = vec![0u32; n];
    let mut result = Ok(());
    for pass in 0..cfg.passes() {
        let f = cfg.pass_fn(pass);
        rsv_metrics::count(rsv_metrics::Metric::SortPasses, 1);
        rsv_metrics::count(rsv_metrics::Metric::SortBytesMoved, 8 * n as u64);
        result = partition_pass_parallel(
            s, vectorized, f, &src_k, &src_p, &mut dst_k, &mut dst_p, &policy,
        )
        .map(|_| ());
        if result.is_err() {
            break;
        }
        std::mem::swap(&mut src_k, &mut dst_k);
        std::mem::swap(&mut src_p, &mut dst_p);
    }
    // Always hand columns back (possibly partially sorted on error) so the
    // caller's relation keeps its tuples.
    *keys = src_k;
    *pays = src_p;
    drop(dst_k);
    drop(dst_p);
    run.budget.release(scratch_bytes);
    result
}

/// Scalar parallel LSB radixsort of `(key, payload)` pairs (stable).
pub fn lsb_radixsort_scalar(keys: &mut Vec<u32>, pays: &mut Vec<u32>, cfg: &SortConfig) {
    let s = rsv_simd::Portable::<16>::new();
    expect_infallible(radixsort_pairs(
        s,
        false,
        keys,
        pays,
        cfg,
        &RunContext::new(),
    ));
}

/// Vectorized parallel LSB radixsort of `(key, payload)` pairs (stable).
pub fn lsb_radixsort_vector<S: Simd>(
    s: S,
    keys: &mut Vec<u32>,
    pays: &mut Vec<u32>,
    cfg: &SortConfig,
) {
    expect_infallible(radixsort_pairs(
        s,
        true,
        keys,
        pays,
        cfg,
        &RunContext::new(),
    ));
}

/// One parallel stable partitioning pass of a key column only, morselized
/// exactly like [`rsv_partition::parallel::partition_pass_parallel`]: per-
/// morsel histograms and staging buffers keyed by morsel id, interleaved
/// offsets in morsel (= input) order, and a barrier before the per-morsel
/// cleanup tasks.
fn pass_keys<S: Simd>(
    s: S,
    vectorized: bool,
    f: RadixFn,
    src_k: &[u32],
    dst_k: &mut Vec<u32>,
    policy: &ExecPolicy,
) -> Result<(), EngineError> {
    let n = src_k.len();
    let t = policy.threads;

    let hist_q = MorselQueue::new(n, policy, S::LANES);
    let m = hist_q.morsel_count();
    let hist_slots: SlotMap<Vec<u32>> = SlotMap::new(m);
    parallel_scope(t, |ctx| {
        for mo in ctx.morsels(&hist_q) {
            let h = ctx.phase(|| {
                let ks = &src_k[mo.range.clone()];
                if vectorized {
                    histogram_vector_replicated(s, f, ks)
                } else {
                    histogram_scalar(f, ks)
                }
            });
            // SAFETY: each morsel id is claimed exactly once.
            unsafe { hist_slots.put(mo.id, h) };
        }
    })
    .map_err(|wp| wp.into_engine_error())?;
    let mut hists: Vec<Vec<u32>> = hist_slots
        .into_values()
        .into_iter()
        .map(|h| h.expect("every morsel histogrammed"))
        .collect();
    if hists.is_empty() {
        // empty input: zero morsels, but the offsets below need one region
        hists.push(vec![0u32; f.fanout()]);
    }
    let bases = interleaved_offsets(&hists);

    let shuffle_q = MorselQueue::new(n, policy, S::LANES);
    let cleanup_q = MorselQueue::tasks(m, policy);
    let staged: SlotMap<(Vec<u32>, Vec<u32>)> = SlotMap::new(m);
    let slots = if vectorized { S::LANES } else { scalar_slots() };
    let out_k = SharedBuffer::from_vec(std::mem::take(dst_k));
    let shuffle_scope = parallel_scope(t, |ctx| {
        // SAFETY: morsels write disjoint regions from the interleaved
        // prefix sums; transiently clobbered first lines are repaired by
        // their owning morsels' cleanup after the barrier (see the safety
        // note on `partition_pass_parallel`).
        let ok = unsafe { out_k.view_mut() };
        for mo in ctx.morsels(&shuffle_q) {
            ctx.phase(|| {
                let mut off = bases[mo.id].clone();
                let mut buf = vec![0u32; f.fanout() * slots];
                keys_buffered_core(
                    s,
                    vectorized,
                    f,
                    &src_k[mo.range.clone()],
                    &mut off,
                    &mut buf,
                    ok,
                );
                // SAFETY: one writer per morsel id, read after the barrier.
                unsafe { staged.put(mo.id, (buf, off)) };
            });
        }
        ctx.barrier();
        for task in ctx.morsels(&cleanup_q) {
            ctx.phase(|| {
                // SAFETY: all writers crossed the barrier above.
                let (buf, off) = unsafe { staged.get(task.id) };
                keys_buffer_cleanup(slots, buf, &bases[task.id], off, ok);
            });
        }
    });
    *dst_k = out_k.into_vec();
    shuffle_scope.map_err(|wp| wp.into_engine_error())?;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn keys_buffered_core<S: Simd>(
    s: S,
    vectorized: bool,
    f: RadixFn,
    keys: &[u32],
    off: &mut [u32],
    buf: &mut [u32],
    out: &mut [u32],
) {
    let w = S::LANES;
    let slots = if vectorized { w } else { scalar_slots() };
    assert_eq!(
        buf.len(),
        f.fanout() * slots,
        "staging buffer size mismatch"
    );
    if vectorized {
        s.vectorize(
            #[inline(always)]
            || {
                use rsv_partition::conflict::serialize_conflicts_native;
                use rsv_simd::MaskLike;
                let one = s.splat(1);
                let wv = s.splat(w as u32);
                let wm1 = s.splat(w as u32 - 1);
                let mut flush_parts = [0u32; 32];
                let mut i = 0usize;
                while i + w <= keys.len() {
                    let k = s.load(&keys[i..]);
                    let h = f.partition_vector(s, k);
                    let c = serialize_conflicts_native(s, h);
                    let o = s.gather(off, h);
                    let pos = s.add(o, c);
                    s.scatter(off, h, s.add(pos, one));
                    let ob = s.add(s.and(o, wm1), c);
                    let slot = s.add(s.mullo(h, wv), ob);
                    let store_now = s.cmplt(ob, wv);
                    s.scatter_masked(buf, store_now, slot, k);
                    let trigger = s.cmpeq(ob, wm1);
                    if trigger.any() {
                        let nf = s.selective_store(&mut flush_parts[..], trigger, h);
                        for &p in &flush_parts[..nf] {
                            let p = p as usize;
                            let target = (off[p] as usize & !(w - 1)) - w;
                            let line = s.load(&buf[p * w..]);
                            s.store_stream(line, &mut out[target..]);
                        }
                        let late = s.cmpge(ob, wv);
                        let slot2 = s.add(s.mullo(h, wv), s.sub(ob, wv));
                        s.scatter_masked(buf, late, slot2, k);
                    }
                    i += w;
                }
                for &kk in &keys[i..] {
                    keys_scalar_step(f, kk, off, buf, out, w);
                }
            },
        );
    } else {
        for &kk in keys {
            keys_scalar_step(f, kk, off, buf, out, slots);
        }
    }
}

#[inline(always)]
fn keys_scalar_step(
    f: RadixFn,
    k: u32,
    off: &mut [u32],
    buf: &mut [u32],
    out: &mut [u32],
    slots: usize,
) {
    let p = f.partition(k);
    let o = off[p] as usize;
    let slot = o & (slots - 1);
    buf[p * slots + slot] = k;
    off[p] = (o + 1) as u32;
    if slot == slots - 1 {
        let target = o + 1 - slots;
        out[target..target + slots].copy_from_slice(&buf[p * slots..p * slots + slots]);
    }
}

fn keys_buffer_cleanup(slots: usize, buf: &[u32], base: &[u32], off: &[u32], out: &mut [u32]) {
    for p in 0..base.len() {
        let start = (off[p] as usize & !(slots - 1)).max(base[p] as usize);
        for q in start..off[p] as usize {
            out[q] = buf[p * slots + (q & (slots - 1))];
        }
    }
}

fn radixsort_keys<S: Simd>(
    s: S,
    vectorized: bool,
    keys: &mut Vec<u32>,
    cfg: &SortConfig,
) -> Result<(), EngineError> {
    let n = keys.len();
    let policy = cfg.policy();
    let mut src = std::mem::take(keys);
    let mut dst = vec![0u32; n];
    let mut result = Ok(());
    for pass in 0..cfg.passes() {
        let f = cfg.pass_fn(pass);
        rsv_metrics::count(rsv_metrics::Metric::SortPasses, 1);
        rsv_metrics::count(rsv_metrics::Metric::SortBytesMoved, 4 * n as u64);
        result = pass_keys(s, vectorized, f, &src, &mut dst, &policy);
        if result.is_err() {
            break;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *keys = src;
    result
}

/// Scalar parallel LSB radixsort of a key column.
pub fn lsb_radixsort_keys_scalar(keys: &mut Vec<u32>, cfg: &SortConfig) {
    let s = rsv_simd::Portable::<16>::new();
    expect_infallible(radixsort_keys(s, false, keys, cfg));
}

/// Vectorized parallel LSB radixsort of a key column.
pub fn lsb_radixsort_keys_vector<S: Simd>(s: S, keys: &mut Vec<u32>, cfg: &SortConfig) {
    expect_infallible(radixsort_keys(s, true, keys, cfg));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsv_simd::Portable;

    fn workload(n: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut rng = rsv_data::rng(seed);
        let keys = rsv_data::uniform_u32(n, &mut rng);
        let pays: Vec<u32> = (0..n as u32).collect();
        (keys, pays)
    }

    fn check_sorted_pairs(keys: &[u32], pays: &[u32], orig_keys: &[u32]) {
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
        // payload i must carry the original tuple (stability: equal keys
        // keep original payload order)
        for (i, (&k, &p)) in keys.iter().zip(pays).enumerate() {
            assert_eq!(orig_keys[p as usize], k, "tuple broken at {i}");
        }
        for w in keys.windows(2).zip(pays.windows(2)) {
            if w.0[0] == w.0[1] {
                assert!(w.1[0] < w.1[1], "not stable");
            }
        }
    }

    #[test]
    fn scalar_sort_matches_std() {
        for n in [0usize, 1, 100, 10_000] {
            let (keys, pays) = workload(n, 111);
            let mut k = keys.clone();
            let mut p = pays.clone();
            lsb_radixsort_scalar(&mut k, &mut p, &SortConfig::default());
            check_sorted_pairs(&k, &p, &keys);
        }
    }

    #[test]
    fn vector_sort_matches_std() {
        let s = Portable::<16>::new();
        for n in [0usize, 1, 17, 1000, 20_000] {
            let (keys, pays) = workload(n, 112);
            let mut k = keys.clone();
            let mut p = pays.clone();
            lsb_radixsort_vector(s, &mut k, &mut p, &SortConfig::default());
            check_sorted_pairs(&k, &p, &keys);
        }
    }

    #[test]
    fn different_radix_bits() {
        let s = Portable::<16>::new();
        let (keys, pays) = workload(5000, 113);
        for bits in [4u32, 5, 6, 8, 11, 16] {
            let mut k = keys.clone();
            let mut p = pays.clone();
            lsb_radixsort_vector(
                s,
                &mut k,
                &mut p,
                &SortConfig {
                    radix_bits: bits,
                    ..SortConfig::default()
                },
            );
            check_sorted_pairs(&k, &p, &keys);
        }
    }

    #[test]
    fn multithreaded_sort_is_stable() {
        let s = Portable::<16>::new();
        // narrow key domain -> many duplicates to stress stability
        let mut rng = rsv_data::rng(114);
        let keys: Vec<u32> = rsv_data::uniform_u32(30_000, &mut rng)
            .iter()
            .map(|k| k % 64)
            .collect();
        let pays: Vec<u32> = (0..30_000).collect();
        for threads in [1usize, 2, 3, 4] {
            let mut k = keys.clone();
            let mut p = pays.clone();
            lsb_radixsort_vector(
                s,
                &mut k,
                &mut p,
                &SortConfig {
                    radix_bits: 8,
                    threads,
                    ..SortConfig::default()
                },
            );
            check_sorted_pairs(&k, &p, &keys);
            let mut ks = keys.clone();
            let mut ps = pays.clone();
            lsb_radixsort_scalar(
                &mut ks,
                &mut ps,
                &SortConfig {
                    radix_bits: 8,
                    threads,
                    ..SortConfig::default()
                },
            );
            check_sorted_pairs(&ks, &ps, &keys);
        }
    }

    #[test]
    fn key_only_sort() {
        let s = Portable::<16>::new();
        for threads in [1usize, 3] {
            for n in [0usize, 1, 31, 12_345] {
                let (keys, _) = workload(n, 115);
                let mut expected = keys.clone();
                expected.sort_unstable();
                let mut k = keys.clone();
                lsb_radixsort_keys_vector(
                    s,
                    &mut k,
                    &SortConfig {
                        radix_bits: 8,
                        threads,
                        ..SortConfig::default()
                    },
                );
                assert_eq!(k, expected, "vector n={n} threads={threads}");
                let mut k = keys.clone();
                lsb_radixsort_keys_scalar(
                    &mut k,
                    &SortConfig {
                        radix_bits: 8,
                        threads,
                        ..SortConfig::default()
                    },
                );
                assert_eq!(k, expected, "scalar n={n} threads={threads}");
            }
        }
    }

    /// A pre-cancelled run returns [`EngineError::Cancelled`] without
    /// claiming any morsels, and hands back columns of the right length.
    #[test]
    fn cancelled_sort_returns_columns() {
        let s = Portable::<16>::new();
        let (keys, pays) = workload(10_000, 42);
        let mut k = keys.clone();
        let mut p = pays.clone();
        let run = RunContext::new();
        run.cancel_token().cancel();
        let cfg = SortConfig {
            radix_bits: 8,
            threads: 4,
            morsel_tuples: 1024,
        };
        let err = radixsort_pairs(s, true, &mut k, &mut p, &cfg, &run)
            .expect_err("pre-cancelled run must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        assert_eq!(k.len(), keys.len());
        assert_eq!(p.len(), pays.len());
        // the engine is immediately reusable with a fresh context
        radixsort_pairs(s, true, &mut k, &mut p, &cfg, &RunContext::new())
            .expect("fresh run must succeed");
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(k, expect);
    }

    /// The ping-pong scratch columns respect the run's memory budget, and
    /// a denied reservation leaves zero bytes accounted.
    #[test]
    fn sort_budget_gates_scratch() {
        let s = Portable::<16>::new();
        let (mut keys, mut pays) = workload(10_000, 7);
        // sort needs 2 * 10_000 * 4 = 80_000 B of scratch; allow less
        let run = RunContext::new().with_memory_limit(1_000);
        let cfg = SortConfig {
            radix_bits: 8,
            threads: 2,
            morsel_tuples: DEFAULT_MORSEL_TUPLES,
        };
        let err = radixsort_pairs(s, true, &mut keys, &mut pays, &cfg, &run)
            .expect_err("budget must deny the scratch columns");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(run.budget.used(), 0);
        assert_eq!(keys.len(), 10_000);
    }

    /// Sorted output must be byte-identical for any thread count and
    /// morsel size.
    #[test]
    fn sort_schedule_independent() {
        let s = Portable::<16>::new();
        let (keys, pays) = workload(25_000, 117);
        let mut reference: Option<(Vec<u32>, Vec<u32>)> = None;
        for threads in [1usize, 2, 3, 8] {
            for morsel in [1024usize, DEFAULT_MORSEL_TUPLES, usize::MAX] {
                let cfg = SortConfig {
                    radix_bits: 8,
                    threads,
                    morsel_tuples: morsel,
                };
                let mut k = keys.clone();
                let mut p = pays.clone();
                lsb_radixsort_vector(s, &mut k, &mut p, &cfg);
                match &reference {
                    None => reference = Some((k, p)),
                    Some((rk, rp)) => {
                        assert_eq!(&k, rk, "keys differ at t={threads} morsel={morsel}");
                        assert_eq!(&p, rp, "pays differ at t={threads} morsel={morsel}");
                    }
                }
                let mut ko = keys.clone();
                radixsort_keys(s, true, &mut ko, &cfg).unwrap();
                let r = reference.as_ref().unwrap();
                let mut expect = r.0.clone();
                expect.sort_unstable();
                assert_eq!(
                    ko, expect,
                    "key-only differs at t={threads} morsel={morsel}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_sort() {
        let (keys, pays) = workload(50_000, 116);
        if let Some(s) = rsv_simd::Avx512::new() {
            let mut k = keys.clone();
            let mut p = pays.clone();
            lsb_radixsort_vector(
                s,
                &mut k,
                &mut p,
                &SortConfig {
                    radix_bits: 8,
                    threads: 2,
                    ..SortConfig::default()
                },
            );
            check_sorted_pairs(&k, &p, &keys);
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            let mut k = keys.clone();
            let mut p = pays.clone();
            lsb_radixsort_vector(
                s,
                &mut k,
                &mut p,
                &SortConfig {
                    radix_bits: 8,
                    threads: 2,
                    ..SortConfig::default()
                },
            );
            check_sorted_pairs(&k, &p, &keys);
        }
    }
}
