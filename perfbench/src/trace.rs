//! Spans around the benchmark's calls into the engine, kept in memory and
//! written out when the run ends. Nothing here instruments the engine
//! itself: every span starts and ends in the benchmark's own query plans.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use rsv_core::metrics::Counters;
use rsv_core::Relation;

use crate::sys;

/// What a [`Tracer`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the plan runs as in an untraced query.
    Off,
    /// Wall and process-CPU spans, plus the join's phase timings.
    Spans,
    /// Work counters per engine call, stage inputs and row counts, for
    /// the ratios and the kernel ladder. Timings are not taken.
    Metered,
}

/// One traced interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub query: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    mode: Mode,
    origin: Instant,
    query: u32,
    stack: Vec<(u32, u64)>,
    pub spans: Vec<Span>,
    /// `(query, name, ms)` timings the engine returned (join phases).
    pub timings: Vec<(u32, &'static str, f64)>,
    /// Work counters per engine call of the metered query.
    pub counters: Vec<(&'static str, Counters)>,
    /// Stage inputs kept by the metered query.
    pub kept: BTreeMap<&'static str, Relation>,
    /// Row counts noted by the metered query.
    pub notes: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(mode: Mode) -> Tracer {
        Tracer {
            mode,
            origin: Instant::now(),
            query: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            timings: Vec::new(),
            counters: Vec::new(),
            kept: BTreeMap::new(),
            notes: BTreeMap::new(),
        }
    }

    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, query: u32, name: &'static str) -> Option<u32> {
        if self.mode != Mode::Spans {
            return None;
        }
        self.query = query;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().map(|&(p, _)| p),
            query,
            name,
            start_ns: 0,
            end_ns: 0,
            cpu_ns: 0,
        });
        let cpu0 = sys::process_cpu_ns();
        self.spans[id as usize].start_ns = self.now_ns();
        self.stack.push((id, cpu0));
        Some(id)
    }

    /// Close span `id` and every span still open inside it (an error
    /// returned mid-plan leaves none open, but a panic can).
    pub fn end(&mut self, id: Option<u32>) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        let cpu1 = sys::process_cpu_ns();
        while let Some((top, cpu0)) = self.stack.pop() {
            let s = &mut self.spans[top as usize];
            s.end_ns = end;
            s.cpu_ns = cpu1.saturating_sub(cpu0);
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.mode {
            Mode::Off => f(),
            Mode::Spans => {
                let id = self.begin(self.query, name);
                let r = f();
                self.end(id);
                r
            }
            Mode::Metered => {
                let (r, sink) = rsv_core::metrics::collect(f);
                self.counters.push((name, sink.total()));
                r
            }
        }
    }

    /// Record a duration the engine measured itself.
    pub fn timing(&mut self, name: &'static str, d: Duration) {
        if self.mode == Mode::Spans {
            self.timings.push((self.query, name, d.as_secs_f64() * 1e3));
        }
    }

    /// Keep a copy of a stage's input for the kernel ladder.
    pub fn keep(&mut self, name: &'static str, rel: &Relation) {
        if self.mode == Mode::Metered {
            self.kept.insert(name, rel.clone());
        }
    }

    /// Note a row count for the work ratios.
    pub fn note(&mut self, name: &'static str, n: usize) {
        if self.mode == Mode::Metered {
            self.notes.insert(name, n as u64);
        }
    }

    /// Sum of the counters recorded by calls named `name`.
    pub fn counters_of(&self, name: &str) -> Counters {
        let mut c = Counters::new();
        for (_, w) in self.counters.iter().filter(|(n, _)| *n == name) {
            c.add(w);
        }
        c
    }

    /// Every span's self time: its duration minus the part of it that
    /// its child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.wall_ns() - covered
            })
            .collect()
    }

    /// Write every span and engine timing as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self.self_ns();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"cpu_us\":{:.3}}}",
                s.id,
                parent,
                s.query,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                own as f64 / 1e3,
                s.cpu_ns as f64 / 1e3,
            )?;
        }
        for (q, name, ms) in &self.timings {
            writeln!(w, "{{\"timing\":\"{name}\",\"query\":{q},\"ms\":{ms}}}")?;
        }
        w.flush()
    }
}
