//! The layer ladder and the bandwidth roofline.
//!
//! The ladder feeds each stage's exact inputs, as the metered query kept
//! them, through the single-thread kernel one layer below the `Engine`
//! call, so the kernel → engine gap comes from one run on identical data.
//! The roofline is a streaming copy and read over buffers far beyond the
//! 4 MiB L2, run with the engine's thread count.

use std::hint::black_box;
use std::time::Instant;

use rsv_core::bloom::BloomFilter;
use rsv_core::hashtab::GroupAggTable;
use rsv_core::scan::{ScanPredicate, ScanVariant};
use rsv_core::simd::{dispatch, Backend};
use rsv_core::sort::SortConfig;
use rsv_core::Relation;

use crate::trace::Tracer;
use crate::workloads::Workload;

const KERNEL_REPS: usize = 3;
const ROOFLINE_REPS: usize = 5;
const ROOFLINE_BYTES: usize = 128 << 20;

/// Median wall time of `run` in ms over [`KERNEL_REPS`] repetitions, each
/// on a fresh input from `prepare` (made outside the timed window).
fn median_ms<T>(mut prepare: impl FnMut() -> T, mut run: impl FnMut(T)) -> f64 {
    let mut ms: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let input = prepare();
            let t = Instant::now();
            run(input);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

fn mtps(rows: usize, ms: f64) -> f64 {
    rows as f64 / (ms * 1e3)
}

/// Throughput in Mtuples/s of each single-thread kernel the workload's
/// plan runs, as `(metric name, value)`. A stage whose input the metered
/// query did not keep (it failed before reaching it) is left out.
pub fn kernel_mtps(w: &Workload, tr: &Tracer, backend: Backend) -> Vec<(&'static str, f64)> {
    let variant = ScanVariant::VectorSelStoreIndirect;
    let mut out = Vec::new();
    let agg = |rel: &Relation, groups: usize| {
        let ms = median_ms(
            || GroupAggTable::new(groups, 0.5),
            |mut t| dispatch!(backend, s => { t.update_vector(s, &rel.keys, &rel.payloads) }),
        );
        ("hashtab.agg.kernel.mtps", mtps(rel.len(), ms))
    };
    let kept = |name| tr.kept.get(name);
    match w {
        Workload::Star(q) => {
            let pred = ScanPredicate {
                lower: q.lo,
                upper: q.hi,
            };
            let n = q.facts.len();
            let (mut ok, mut op) = (vec![0u32; n], vec![0u32; n]);
            let ms = median_ms(
                || (),
                |()| {
                    black_box(rsv_core::scan::scan(
                        backend,
                        variant,
                        &q.facts.keys,
                        &q.facts.payloads,
                        pred,
                        &mut ok,
                        &mut op,
                    ));
                },
            );
            out.push(("scan.kernel.mtps", mtps(n, ms)));

            if let Some(input) = kept("bloom.in") {
                let mut filter = BloomFilter::new(q.dims.len(), 10, 5);
                filter.build(&q.dims.keys);
                let ms = median_ms(
                    || (),
                    |()| {
                        black_box(dispatch!(backend, s => {
                            filter.probe_vector(s, &input.keys, &input.payloads, &mut ok, &mut op)
                        }));
                    },
                );
                out.push(("bloom.kernel.mtps", mtps(input.len(), ms)));
            }
            if let Some(input) = kept("sort.in") {
                let cfg = SortConfig {
                    threads: 1,
                    ..SortConfig::default()
                };
                let ms = median_ms(
                    || (input.keys.clone(), input.payloads.clone()),
                    |(mut k, mut p)| {
                        dispatch!(backend, s => {
                            rsv_core::sort::lsb_radixsort_vector(s, &mut k, &mut p, &cfg)
                        });
                        black_box((k, p));
                    },
                );
                out.push(("sort.kernel.mtps", mtps(input.len(), ms)));
            }
        }
        Workload::JoinAgg(q) => out.extend(kept("agg.in").map(|r| agg(r, q.dims.len()))),
        Workload::Packed(q) => {
            let pred = ScanPredicate {
                lower: q.lo,
                upper: q.hi,
            };
            let n = q.rel.len();
            let (mut ok, mut op) = (vec![0u32; n], vec![0u32; n]);
            let ms = median_ms(
                || (),
                |()| {
                    black_box(rsv_core::column::select_fused(
                        backend,
                        variant,
                        &q.rel.keys,
                        &q.rel.payloads,
                        pred,
                        &mut ok,
                        &mut op,
                    ));
                },
            );
            out.push(("column.kernel.mtps", mtps(n, ms)));
            out.extend(kept("agg.in").map(|r| agg(r, q.groups())));
        }
    }
    out
}

/// Best-of-N streaming `(copy, read)` bandwidth in GB/s over
/// [`ROOFLINE_BYTES`] per buffer, split across `threads` threads. Copy
/// counts the bytes read plus the bytes written.
pub fn roofline(threads: usize) -> (f64, f64) {
    let n = ROOFLINE_BYTES / 8;
    let src: Vec<u64> = (0..n as u64).collect();
    let mut dst = vec![1u64; n];
    let chunk = n.div_ceil(threads);
    let best = |ns: &mut dyn FnMut() -> f64| {
        (0..ROOFLINE_REPS)
            .map(|_| ns())
            .fold(f64::INFINITY, f64::min)
    };
    let copy_s = best(&mut || {
        let t = Instant::now();
        std::thread::scope(|sc| {
            for (d, s) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                sc.spawn(move || d.copy_from_slice(s));
            }
        });
        t.elapsed().as_secs_f64()
    });
    black_box(&dst);
    let read_s = best(&mut || {
        let t = Instant::now();
        std::thread::scope(|sc| {
            for s in src.chunks(chunk) {
                // Independent lanes, so the sum is not bound by add latency.
                sc.spawn(move || {
                    let lanes = s.chunks_exact(8).fold([0u64; 8], |mut a, c| {
                        for (a, &x) in a.iter_mut().zip(c) {
                            *a = a.wrapping_add(x);
                        }
                        a
                    });
                    black_box(lanes)
                });
            }
        });
        t.elapsed().as_secs_f64()
    });
    let bytes = (n * 8) as f64;
    (2.0 * bytes / copy_s / 1e9, bytes / read_s / 1e9)
}
