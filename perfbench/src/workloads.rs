//! The three analytical queries, their generated inputs and their scalar
//! reference answers.
//!
//! Each plan runs through the public `Engine` API only. Every statement of
//! a plan sits inside a span: engine calls in `core.<op>`, the plan's own
//! work between them (flattening join sinks, the ordered group loop,
//! freeing intermediates) in `bench.glue`, so the spans of a query cover
//! its whole wall time.

use std::collections::BTreeMap;

use rsv_core::data::{self, Relation};
use rsv_core::{CompressedRelation, Engine, EngineError, JoinResult, RunContext};

use crate::trace::Tracer;

/// A query answer: `(group key, COUNT(*), SUM(value))` rows by ascending key.
pub type Answer = Vec<(u32, u32, u64)>;

/// A workload's inputs, as the engine sees them.
pub enum Workload {
    Star(Star),
    JoinAgg(JoinAgg),
    Packed(Packed),
}

pub const NAMES: [&str; 3] = ["star_query", "join_agg", "packed_scan_agg"];

impl Workload {
    /// Generate the inputs of workload `name` from `seed` (compressing
    /// them where the plan reads compressed columns), returning them with
    /// the generated rows the reference answer is computed from.
    pub fn generate(name: &str, seed: u64, engine: &Engine) -> Option<(Workload, Relation)> {
        let mut rng = data::rng(seed);
        Some(match name {
            "star_query" => {
                // Dimension keys are 1/8 of a key pool the fact keys are
                // drawn from, so about 1 in 8 fact rows has a join partner.
                let pool = data::unique_u32(STAR_DIMS * 8, &mut rng);
                let dims = Relation::new(
                    pool[..STAR_DIMS].to_vec(),
                    (0..STAR_DIMS as u32).map(|i| i % STAR_GROUPS).collect(),
                );
                let fact_keys = data::uniform_u32(STAR_FACTS, &mut rng)
                    .into_iter()
                    .map(|r| pool[r as usize % pool.len()])
                    .collect();
                let facts = Relation::new(fact_keys, data::uniform_u32(STAR_FACTS, &mut rng));
                let (lo, hi) = data::selection_bounds(STAR_SELECTIVITY);
                (
                    Workload::Star(Star {
                        facts,
                        dims,
                        lo,
                        hi,
                    }),
                    Relation::default(),
                )
            }
            "join_agg" => {
                let w = data::join_workload(JOIN_DIMS, JOIN_FACTS, 1.0, JOIN_MATCH, &mut rng);
                (
                    Workload::JoinAgg(JoinAgg {
                        dims: w.inner,
                        facts: w.outer,
                    }),
                    Relation::default(),
                )
            }
            "packed_scan_agg" => {
                let raw = Relation::new(
                    data::bounded_u32(PACKED_ROWS, PACKED_KEY_BITS, &mut rng),
                    data::bounded_u32(PACKED_ROWS, PACKED_PAYLOAD_BITS, &mut rng),
                );
                let rel = engine.compress(&raw);
                let hi = ((1u64 << PACKED_KEY_BITS) as f64 * PACKED_SELECTIVITY) as u32 - 1;
                (Workload::Packed(Packed { rel, lo: 0, hi }), raw)
            }
            _ => return None,
        })
    }

    /// Run the query once.
    pub fn query(&self, e: &Engine, tr: &mut Tracer) -> Result<Answer, EngineError> {
        match self {
            Workload::Star(w) => w.query(e, tr),
            Workload::JoinAgg(w) => w.query(e, tr),
            Workload::Packed(w) => w.query(e, tr),
        }
    }

    /// The answer, computed with a scalar `BTreeMap` over the generated
    /// rows (`raw` holds them where the engine only sees compressed ones).
    pub fn reference(&self, raw: &Relation) -> Answer {
        match self {
            Workload::Star(w) => w.reference(),
            Workload::JoinAgg(w) => w.reference(),
            Workload::Packed(w) => w.reference(raw),
        }
    }

    /// Rows of the base relations one query reads.
    pub fn input_rows(&self) -> usize {
        match self {
            Workload::Star(w) => w.facts.len() + w.dims.len(),
            Workload::JoinAgg(w) => w.facts.len() + w.dims.len(),
            Workload::Packed(w) => w.rel.len(),
        }
    }

    /// One line naming the sizes and the plan.
    pub fn describe(&self) -> String {
        match self {
            Workload::Star(w) => format!(
                "facts {} rows, dims {} rows, scan selectivity {STAR_SELECTIVITY}, {STAR_GROUPS} groups; \
                 select -> bloom_semijoin -> hash_join -> sort -> ordered group loop",
                w.facts.len(),
                w.dims.len()
            ),
            Workload::JoinAgg(w) => format!(
                "facts {} rows, dims {} rows, match fraction {JOIN_MATCH}; \
                 hash_join -> group_by_sum on the join key",
                w.facts.len(),
                w.dims.len()
            ),
            Workload::Packed(w) => format!(
                "{} rows, {PACKED_KEY_BITS}-bit keys, {PACKED_PAYLOAD_BITS}-bit payloads, \
                 compression ratio {:.2}, scan selectivity {PACKED_SELECTIVITY}; \
                 select_compressed -> group_by_sum on the payload",
                w.rel.len(),
                w.rel.compression_ratio()
            ),
        }
    }
}

const STAR_FACTS: usize = 8 << 20;
const STAR_DIMS: usize = 1 << 20;
const STAR_GROUPS: u32 = 50;
const STAR_SELECTIVITY: f64 = 0.5;

const JOIN_FACTS: usize = 2 << 20;
const JOIN_DIMS: usize = 1 << 18;
const JOIN_MATCH: f64 = 0.9;

const PACKED_ROWS: usize = 32 << 20;
const PACKED_KEY_BITS: u32 = 20;
const PACKED_PAYLOAD_BITS: u32 = 6;
const PACKED_SELECTIVITY: f64 = 0.05;

/// Flatten join sinks into one relation of two of their columns.
fn flatten(
    j: &JoinResult,
    key: impl Fn(&rsv_core::JoinSink) -> &[u32],
    pay: impl Fn(&rsv_core::JoinSink) -> &[u32],
) -> Relation {
    Relation::new(
        j.sinks
            .iter()
            .flat_map(|s| key(s).iter().copied())
            .collect(),
        j.sinks
            .iter()
            .flat_map(|s| pay(s).iter().copied())
            .collect(),
    )
}

fn into_answer(m: BTreeMap<u32, (u32, u64)>) -> Answer {
    m.into_iter().map(|(k, (c, s))| (k, c, s)).collect()
}

/// `SELECT d.category, COUNT(*), SUM(f.payload) FROM facts f JOIN dims d
/// ON f.key = d.key WHERE f.key BETWEEN lo AND hi GROUP BY d.category`.
pub struct Star {
    pub facts: Relation,
    pub dims: Relation,
    pub lo: u32,
    pub hi: u32,
}

impl Star {
    fn query(&self, e: &Engine, tr: &mut Tracer) -> Result<Answer, EngineError> {
        let run = RunContext::new();
        let sel = tr.span("core.select", || {
            e.try_select(&self.facts, self.lo, self.hi, &run)
        })?;
        tr.keep("bloom.in", &sel);
        let cand = tr.span("core.bloom_semijoin", || {
            e.bloom_semijoin(&sel, &self.dims.keys)
        });
        tr.note("bloom.passes", cand.len());
        tr.span("bench.glue", || drop(sel));
        let joined = tr.span("core.hash_join", || {
            e.try_hash_join(&self.dims, &cand, &run)
        })?;
        tr.timing("join.partition.ms", joined.timings.partition);
        tr.timing("join.build.ms", joined.timings.build);
        tr.timing("join.probe.ms", joined.timings.probe);
        tr.note("join.matches", joined.matches());
        let mut by_category = tr.span("bench.glue", || {
            drop(cand);
            let r = flatten(&joined, |s| s.columns().1, |s| s.columns().2);
            drop(joined);
            r
        });
        tr.keep("sort.in", &by_category);
        tr.span("core.sort", || e.try_sort(&mut by_category, &run))?;
        Ok(tr.span("bench.glue", || {
            let mut groups: Answer = Vec::new();
            for (cat, val) in by_category.iter() {
                match groups.last_mut() {
                    Some(g) if g.0 == cat => {
                        g.1 += 1;
                        g.2 += u64::from(val);
                    }
                    _ => groups.push((cat, 1, u64::from(val))),
                }
            }
            drop(by_category);
            groups
        }))
    }

    fn reference(&self) -> Answer {
        let category: BTreeMap<u32, u32> = self.dims.iter().collect();
        let mut m = BTreeMap::<u32, (u32, u64)>::new();
        for (k, v) in self.facts.iter() {
            if (self.lo..=self.hi).contains(&k) {
                if let Some(&c) = category.get(&k) {
                    let g = m.entry(c).or_default();
                    g.0 += 1;
                    g.1 += u64::from(v);
                }
            }
        }
        into_answer(m)
    }
}

/// `SELECT f.key, COUNT(*), SUM(f.payload) FROM facts f JOIN dims d
/// ON f.key = d.key GROUP BY f.key`.
pub struct JoinAgg {
    pub facts: Relation,
    pub dims: Relation,
}

impl JoinAgg {
    fn query(&self, e: &Engine, tr: &mut Tracer) -> Result<Answer, EngineError> {
        let run = RunContext::new();
        let joined = tr.span("core.hash_join", || {
            e.try_hash_join(&self.dims, &self.facts, &run)
        })?;
        tr.timing("join.partition.ms", joined.timings.partition);
        tr.timing("join.build.ms", joined.timings.build);
        tr.timing("join.probe.ms", joined.timings.probe);
        tr.note("join.matches", joined.matches());
        let rel = tr.span("bench.glue", || {
            let r = flatten(&joined, |s| s.columns().0, |s| s.columns().2);
            drop(joined);
            r
        });
        tr.keep("agg.in", &rel);
        let groups = tr.span("core.group_by_sum", || {
            e.try_group_by_sum(&rel, self.dims.len(), &run)
        })?;
        tr.span("bench.glue", || drop(rel));
        Ok(groups)
    }

    fn reference(&self) -> Answer {
        let dims: std::collections::BTreeSet<u32> = self.dims.keys.iter().copied().collect();
        let mut m = BTreeMap::<u32, (u32, u64)>::new();
        for (k, v) in self.facts.iter() {
            if dims.contains(&k) {
                let g = m.entry(k).or_default();
                g.0 += 1;
                g.1 += u64::from(v);
            }
        }
        into_answer(m)
    }
}

/// `SELECT payload, COUNT(*), SUM(key) FROM packed WHERE key BETWEEN lo
/// AND hi GROUP BY payload` over bit-packed columns.
pub struct Packed {
    pub rel: CompressedRelation,
    pub lo: u32,
    pub hi: u32,
}

impl Packed {
    fn query(&self, e: &Engine, tr: &mut Tracer) -> Result<Answer, EngineError> {
        let run = RunContext::new();
        let sel = tr.span("core.select_compressed", || {
            e.select_compressed(&self.rel, self.lo, self.hi)
        });
        let by_payload = tr.span("bench.glue", || Relation::new(sel.payloads, sel.keys));
        tr.keep("agg.in", &by_payload);
        let groups = tr.span("core.group_by_sum", || {
            e.try_group_by_sum(&by_payload, self.groups(), &run)
        })?;
        tr.span("bench.glue", || drop(by_payload));
        Ok(groups)
    }

    fn reference(&self, raw: &Relation) -> Answer {
        let mut m = BTreeMap::<u32, (u32, u64)>::new();
        for (k, v) in raw.iter() {
            if (self.lo..=self.hi).contains(&k) {
                let g = m.entry(v).or_default();
                g.0 += 1;
                g.1 += u64::from(k);
            }
        }
        into_answer(m)
    }

    /// Distinct payload values, the group count.
    pub fn groups(&self) -> usize {
        1 << PACKED_PAYLOAD_BITS
    }
}

/// Order-sensitive 64-bit digest of an answer.
pub fn digest(a: &[(u32, u32, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ a.len() as u64;
    for &(k, c, s) in a {
        for w in [u64::from(k), u64::from(c), s] {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
        }
    }
    h
}
