//! End-to-end and per-layer benchmark of analytical queries through the
//! public `rsv_core::Engine` API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload star_query --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client runs queries in a closed loop: each query starts when the
//! previous one returns. Every answer is checked against a scalar
//! reference computed once, outside every timed window. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` alternates traced and
//! untraced queries and reports the per-layer metrics, writing the spans
//! to `perfbench/out/`. The last line of standard output is one JSON
//! object; `perfbench/README.md` maps each metric to its layer.

mod layers;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rsv_core::metrics::{Counters, Metric};
use rsv_core::Engine;

use trace::{Mode, Tracer};
use workloads::{digest, Answer, Workload};

/// Engine worker threads: the benchmark host has 2 logical CPUs.
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Untimed queries at the end of each set-up.
const WARMUP_QUERIES: usize = 2;
/// Queries a measuring loop runs at least, so that 10 lie beyond p90.
const MIN_QUERIES: usize = 100;
/// A loop that has not reached [`MIN_QUERIES`] stops at this multiple of
/// `--seconds`, so a slow build still finishes.
const MAX_STRETCH: u32 = 4;

const END_TO_END: [(&str, &str); 5] = [
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

const PER_LAYER: [(&str, &str); 57] = [
    ("core.select.ms", "ms"),
    ("core.bloom_semijoin.ms", "ms"),
    ("core.hash_join.ms", "ms"),
    ("core.sort.ms", "ms"),
    ("core.group_by_sum.ms", "ms"),
    ("core.select_compressed.ms", "ms"),
    ("bench.glue.ms", "ms"),
    ("join.partition.ms", "ms"),
    ("join.build.ms", "ms"),
    ("join.probe.ms", "ms"),
    ("scan.kernel.mtps", "Mtuples/s"),
    ("core.select.mtps", "Mtuples/s"),
    ("bloom.kernel.mtps", "Mtuples/s"),
    ("core.bloom_semijoin.mtps", "Mtuples/s"),
    ("column.kernel.mtps", "Mtuples/s"),
    ("core.select_compressed.mtps", "Mtuples/s"),
    ("hashtab.agg.kernel.mtps", "Mtuples/s"),
    ("core.group_by_sum.mtps", "Mtuples/s"),
    ("sort.kernel.mtps", "Mtuples/s"),
    ("core.sort.mtps", "Mtuples/s"),
    ("roofline.copy_gbps", "GB/s"),
    ("roofline.read_gbps", "GB/s"),
    ("core.select.bw_frac", "frac"),
    ("core.select_compressed.bw_frac", "frac"),
    ("core.bloom_semijoin.bw_frac", "frac"),
    ("exec.select.cpu_util", "frac"),
    ("exec.bloom_semijoin.cpu_util", "frac"),
    ("exec.hash_join.cpu_util", "frac"),
    ("exec.sort.cpu_util", "frac"),
    ("exec.group_by_sum.cpu_util", "frac"),
    ("exec.select_compressed.cpu_util", "frac"),
    ("scan.selectivity", "frac"),
    ("scan.tuples_in", "count"),
    ("bloom.pass_rate", "frac"),
    ("bloom.false_pos_rate", "frac"),
    ("bloom.passes", "count"),
    ("bloom.words_per_key", "words/key"),
    ("bloom.keys_probed", "count"),
    ("hashtab.probes_per_key", "probes/key"),
    ("hashtab.keys_probed", "count"),
    ("hashtab.build_retries_per_key", "retries/key"),
    ("hashtab.keys_built", "count"),
    ("hashtab.groups_per_row", "frac"),
    ("hashtab.agg_rows", "count"),
    ("partition.flushed_frac", "frac"),
    ("partition.tuples_out", "count"),
    ("partition.conflicts_per_tuple", "frac"),
    ("partition.shuffle_tuples", "count"),
    ("sort.bytes_moved", "B"),
    ("column.blocks_decoded", "count"),
    ("exec.steal_frac", "frac"),
    ("exec.morsels_claimed", "count"),
    ("exec.fallback_builds", "count"),
    ("trace.query_p50_ms", "ms"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unaccounted_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("{flag}: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::NAMES
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (0 for no values).
fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in `(0, 1]` (0 for no values).
fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    let rank = ((q * s.len() as f64).ceil() as usize).min(s.len());
    rank.checked_sub(1).map_or(0.0, |i| s[i])
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Outcome tally of a measuring loop.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    failed: usize,
    mismatched: usize,
}

/// Run one query, catching a panic, and time it.
fn run_query(w: &Workload, e: &Engine, tr: &mut Tracer, q: u32) -> (f64, Result<Answer, String>) {
    let t = Instant::now();
    let span = tr.begin(q, "query");
    let r = catch_unwind(AssertUnwindSafe(|| w.query(e, tr)));
    tr.end(span);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let r = match r {
        Ok(Ok(a)) => Ok(a),
        Ok(Err(err)) => Err(format!("engine error: {err}")),
        Err(_) => Err("query panicked".to_string()),
    };
    (ms, r)
}

impl Tally {
    fn record(&mut self, ms: f64, r: Result<Answer, String>, want: u64) -> Option<Answer> {
        self.latencies_ms.push(ms);
        match r {
            Ok(a) if digest(&a) == want => return Some(a),
            Ok(_) => {
                self.mismatched += 1;
                eprintln!("perfbench: query result differs from the reference");
            }
            Err(e) => eprintln!("perfbench: {e}"),
        }
        self.failed += 1;
        None
    }
}

/// Generate the inputs and warm up, [`SETUP_REPS`] times; returns the last
/// inputs, their generated rows and each set-up's seconds.
fn setup(
    args: &Args,
    e: &Engine,
    reps: usize,
) -> Result<(Workload, rsv_core::Relation, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let (w, raw) = Workload::generate(&args.workload, args.seed, e)
            .ok_or(format!("unknown workload {}", args.workload))?;
        let mut tr = Tracer::new(Mode::Off);
        for q in 0..WARMUP_QUERIES {
            // Failures here surface again in the measured loop.
            let _ = run_query(&w, e, &mut tr, q as u32);
        }
        times.push(t.elapsed().as_secs_f64());
        last = Some((w, raw));
    }
    let (w, raw) = last.ok_or("no set-up ran")?;
    Ok((w, raw, times))
}

fn run(args: &Args) -> Result<(), String> {
    let engine = Engine::new().with_threads(THREADS);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host: {cpus} logical cpus, backend {}, engine threads {THREADS}, closed loop with 1 client",
        engine.backend().name()
    );
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (w, raw, setup_times) = setup(args, &engine, reps)?;
    println!(
        "workload {} (seed {}): {}",
        args.workload,
        args.seed,
        w.describe()
    );
    let reference = w.reference(&raw);
    drop(raw);
    let want = digest(&reference);
    println!("reference: {} groups, digest {want:016x}", reference.len());

    let seconds = Duration::from_secs(u64::from(args.seconds));
    let start = Instant::now();
    let keep_going = |n: usize| {
        let el = start.elapsed();
        el < seconds || (n < MIN_QUERIES && el < seconds * MAX_STRETCH)
    };

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (attempted, failed, correct, table): (usize, usize, bool, &[(&str, &str)]);
    if !args.trace {
        let mut tally = Tally::default();
        let mut tr = Tracer::new(Mode::Off);
        let mut q = 0u32;
        while keep_going(tally.latencies_ms.len()) {
            let (ms, r) = run_query(&w, &engine, &mut tr, q);
            tally.record(ms, r, want);
            q += 1;
        }
        let lat = &tally.latencies_ms;
        let total_s: f64 = lat.iter().sum::<f64>() / 1e3;
        metrics.insert("query_p50_ms", median(lat));
        metrics.insert("query_p90_ms", percentile(lat, 0.9));
        metrics.insert("rows_per_s", (lat.len() * w.input_rows()) as f64 / total_s);
        metrics.insert("setup_s", median(&setup_times));
        metrics.insert("peak_rss_mb", sys::peak_rss_mb());
        println!(
            "queries: {} (p90 has {} samples beyond it), failed {}, result mismatches {}",
            lat.len(),
            lat.len() - ((0.9 * lat.len() as f64).ceil() as usize).min(lat.len()),
            tally.failed,
            tally.mismatched
        );
        println!(
            "error_rate {} frac ({} of {})",
            ratio(tally.failed as u64, lat.len() as u64),
            tally.failed,
            lat.len()
        );
        attempted = lat.len();
        failed = tally.failed;
        correct = tally.mismatched == 0;
        table = &END_TO_END;
    } else {
        let (tallies, tr) = traced_run(args, &w, &engine, want, keep_going)?;
        per_layer_metrics(&mut metrics, &w, &engine, &tallies, &tr);
        // A query's own self time is wall time no child span covers.
        let accounted = metrics["trace.unaccounted_frac"] <= UNACCOUNTED_LIMIT;
        if !accounted {
            eprintln!(
                "perfbench: spans leave more than {UNACCOUNTED_LIMIT} of a query unaccounted"
            );
        }
        attempted = tallies.iter().map(|t| t.latencies_ms.len()).sum();
        failed = tallies.iter().map(|t| t.failed).sum();
        correct = tallies.iter().all(|t| t.mismatched == 0) && accounted;
        table = &PER_LAYER;
    }

    for (name, unit) in table {
        let v = metrics.get(name).copied().unwrap_or(0.0);
        metrics.insert(name, if v.is_finite() { v } else { 0.0 });
        println!("{name} {} {unit}", metrics[name]);
    }
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                metrics[name]
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

/// The traced run: alternate traced and untraced queries for the run's
/// seconds, then one metered query that keeps each stage's inputs. Returns
/// the tallies `[traced, untraced, metered]` and the tracer.
fn traced_run(
    args: &Args,
    w: &Workload,
    engine: &Engine,
    want: u64,
    keep_going: impl Fn(usize) -> bool,
) -> Result<([Tally; 3], Tracer), String> {
    let mut tallies: [Tally; 3] = Default::default();
    let mut tr = Tracer::new(Mode::Off);
    let mut q = 0u32;
    while keep_going(q as usize) {
        let traced = q.is_multiple_of(2);
        tr.set_mode(if traced { Mode::Spans } else { Mode::Off });
        let (ms, r) = run_query(w, engine, &mut tr, q);
        tallies[usize::from(!traced)].record(ms, r, want);
        q += 1;
    }
    tr.set_mode(Mode::Metered);
    let (ms, r) = run_query(w, engine, &mut tr, q);
    if let Some(a) = tallies[2].record(ms, r, want) {
        tr.note("answer.groups", a.len());
    }
    tr.set_mode(Mode::Off);

    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    tr.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {} written to {}", tr.spans.len(), path.display());
    Ok((tallies, tr))
}

/// Largest share of a traced query's wall time its child spans may leave
/// uncovered.
const UNACCOUNTED_LIMIT: f64 = 0.01;

/// Span times of one name within one traced query.
#[derive(Default)]
struct SpanSums {
    own_ns: u64,
    cpu_ns: u64,
    wall_ns: u64,
}

/// Fill the per-layer metrics from the traced queries, the metered query,
/// the kernel ladder and the roofline.
fn per_layer_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    w: &Workload,
    engine: &Engine,
    tallies: &[Tally; 3],
    tr: &Tracer,
) {
    // Per traced query and span name: summed self, CPU and wall time.
    let mut sums: BTreeMap<(u32, &str), SpanSums> = BTreeMap::new();
    for (s, own) in tr.spans.iter().zip(tr.self_ns()) {
        let e = sums.entry((s.query, s.name)).or_default();
        e.own_ns += own;
        e.cpu_ns += s.cpu_ns;
        e.wall_ns += s.wall_ns();
    }
    let per_query = |name: &str, f: fn(&SpanSums) -> f64| -> Vec<f64> {
        sums.iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, v)| f(v))
            .collect()
    };
    let own_ms: fn(&SpanSums) -> f64 = |v| v.own_ns as f64 / 1e6;
    let ops = [
        ("select", "core.select.ms", "exec.select.cpu_util"),
        (
            "bloom_semijoin",
            "core.bloom_semijoin.ms",
            "exec.bloom_semijoin.cpu_util",
        ),
        ("hash_join", "core.hash_join.ms", "exec.hash_join.cpu_util"),
        ("sort", "core.sort.ms", "exec.sort.cpu_util"),
        (
            "group_by_sum",
            "core.group_by_sum.ms",
            "exec.group_by_sum.cpu_util",
        ),
        (
            "select_compressed",
            "core.select_compressed.ms",
            "exec.select_compressed.cpu_util",
        ),
    ];
    for (op, ms_name, util_name) in ops {
        let span = format!("core.{op}");
        m.insert(ms_name, median(&per_query(&span, own_ms)));
        let util = per_query(&span, |v| {
            v.cpu_ns as f64 / (v.wall_ns.max(1) * THREADS as u64) as f64
        });
        m.insert(util_name, median(&util));
    }
    m.insert("bench.glue.ms", median(&per_query("bench.glue", own_ms)));
    let unaccounted = per_query("query", |v| v.own_ns as f64 / v.wall_ns.max(1) as f64);
    m.insert(
        "trace.unaccounted_frac",
        unaccounted.into_iter().fold(0.0, f64::max),
    );
    for name in ["join.partition.ms", "join.build.ms", "join.probe.ms"] {
        let v: Vec<f64> = tr
            .timings
            .iter()
            .filter(|t| t.1 == name)
            .map(|t| t.2)
            .collect();
        m.insert(name, median(&v));
    }
    let traced_p50 = median(&tallies[0].latencies_ms);
    let untraced_p50 = median(&tallies[1].latencies_ms);
    m.insert("trace.query_p50_ms", traced_p50);
    m.insert("trace.untraced_p50_ms", untraced_p50);
    m.insert("trace.overhead_ms", traced_p50 - untraced_p50);

    // Work ratios from the metered query, each with its base.
    let note = |n: &str| tr.notes.get(n).copied().unwrap_or(0);
    let rows = |n: &str| tr.kept.get(n).map_or(0, |r| r.len() as u64);
    let c = |n: &str| tr.counters_of(n);
    let mut all = Counters::new();
    for (_, k) in &tr.counters {
        all.add(k);
    }
    let (scan_in, scan_out) = match w {
        Workload::Star(q) => (q.facts.len() as u64, rows("bloom.in")),
        Workload::Packed(q) => (q.rel.len() as u64, rows("agg.in")),
        Workload::JoinAgg(_) => (0, 0),
    };
    m.insert("scan.selectivity", ratio(scan_out, scan_in));
    m.insert("scan.tuples_in", scan_in as f64);

    let bloom = c("core.bloom_semijoin");
    let (probed, passes) = (bloom.get(Metric::BloomKeysProbed), note("bloom.passes"));
    m.insert("bloom.pass_rate", ratio(passes, probed));
    m.insert(
        "bloom.false_pos_rate",
        ratio(passes.saturating_sub(note("join.matches")), passes),
    );
    m.insert("bloom.passes", passes as f64);
    m.insert(
        "bloom.words_per_key",
        ratio(bloom.get(Metric::BloomWordsTouched), probed),
    );
    m.insert("bloom.keys_probed", probed as f64);

    let join = c("core.hash_join");
    let keys_probed = join.get(Metric::LpKeysProbed) + join.get(Metric::DhKeysProbed);
    let probes = join.get(Metric::LpProbes) + join.get(Metric::DhProbes);
    let built = join.get(Metric::LpKeysBuilt) + join.get(Metric::CuckooKeysBuilt);
    m.insert("hashtab.probes_per_key", ratio(probes, keys_probed));
    m.insert("hashtab.keys_probed", keys_probed as f64);
    m.insert(
        "hashtab.build_retries_per_key",
        ratio(join.get(Metric::LpBuildConflictRetries), built),
    );
    m.insert("hashtab.keys_built", built as f64);
    if !matches!(w, Workload::Star(_)) {
        m.insert(
            "hashtab.groups_per_row",
            ratio(note("answer.groups"), rows("agg.in")),
        );
        m.insert("hashtab.agg_rows", rows("agg.in") as f64);
    }
    let flushed = join.get(Metric::PartTuplesFlushed);
    let part_out = flushed + join.get(Metric::PartTuplesResidual);
    m.insert("partition.flushed_frac", ratio(flushed, part_out));
    m.insert("partition.tuples_out", part_out as f64);
    let shuffled = join.get(Metric::PartShuffleTuples);
    m.insert(
        "partition.conflicts_per_tuple",
        ratio(join.get(Metric::PartConflictsSerialized), shuffled),
    );
    m.insert("partition.shuffle_tuples", shuffled as f64);
    m.insert(
        "sort.bytes_moved",
        c("core.sort").get(Metric::SortBytesMoved) as f64,
    );
    m.insert(
        "column.blocks_decoded",
        c("core.select_compressed").get(Metric::ColBlocksDecoded) as f64,
    );
    let claimed = all.get(Metric::MorselsClaimed);
    m.insert(
        "exec.steal_frac",
        ratio(all.get(Metric::MorselsStolen), claimed),
    );
    m.insert("exec.morsels_claimed", claimed as f64);
    m.insert(
        "exec.fallback_builds",
        all.get(Metric::FallbackBuilds) as f64,
    );

    // The ladder: each Engine call against its single-thread kernel on the
    // same inputs.
    for (name, v) in layers::kernel_mtps(w, tr, engine.backend()) {
        m.insert(name, v);
    }
    let ladder = [
        ("core.select.mtps", "core.select.ms", scan_in),
        ("core.bloom_semijoin.mtps", "core.bloom_semijoin.ms", probed),
        ("core.sort.mtps", "core.sort.ms", rows("sort.in")),
        (
            "core.group_by_sum.mtps",
            "core.group_by_sum.ms",
            rows("agg.in"),
        ),
        (
            "core.select_compressed.mtps",
            "core.select_compressed.ms",
            scan_in,
        ),
    ];
    for (name, ms_name, rows) in ladder {
        let ms = m[ms_name];
        if ms > 0.0 && rows > 0 {
            m.insert(name, rows as f64 / (ms * 1e3));
        }
    }

    // Computed bytes moved (input columns read plus output columns written)
    // per second of self time, against the copy roofline.
    let (copy_gbps, read_gbps) = layers::roofline(THREADS);
    let gbps = |bytes: u64, ms: f64| bytes as f64 / (ms * 1e6);
    let bw = match w {
        Workload::Star(q) => vec![
            (
                "core.select.bw_frac",
                gbps(8 * scan_in + 8 * scan_out, m["core.select.ms"]),
            ),
            (
                "core.bloom_semijoin.bw_frac",
                gbps(
                    8 * probed + 4 * q.dims.len() as u64 + 8 * passes,
                    m["core.bloom_semijoin.ms"],
                ),
            ),
        ],
        Workload::Packed(q) => vec![(
            "core.select_compressed.bw_frac",
            gbps(
                q.rel.packed_bytes() as u64 + 8 * scan_out,
                m["core.select_compressed.ms"],
            ),
        )],
        Workload::JoinAgg(_) => vec![],
    };
    m.insert("roofline.copy_gbps", copy_gbps);
    m.insert("roofline.read_gbps", read_gbps);
    for (name, g) in bw {
        m.insert(name, g / copy_gbps);
    }
}
