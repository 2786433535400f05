//! Spans recorded by the benchmark itself, around its calls into each
//! layer's public functions. Nothing here reaches into the product: spans
//! *inside* the program are a later change (ROADMAP items 1 and 5).
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! name is `layer.what`; the layer is the text before the first dot and is
//! one of this repo's modules (`sim`, `mmps`, `spmd`, `apps`, `calibrate`,
//! `core`, `pipeline`, `serve`) or `bench` for the harness itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index (in the same span list) of the span that caused this one.
    pub parent: Option<u32>,
    /// The repetition the span belongs to: spans of one repetition share it.
    pub rep: u32,
}

impl Span {
    /// The span's length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. Disabled, every call is a plain function call with
/// no clock read, so untraced repetitions measure the product alone.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Start or stop recording; `rep` tags every span recorded from now on.
    pub fn set(&mut self, enabled: bool, rep: u32) {
        self.enabled = enabled;
        self.rep = rep;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through the
    /// tracer it is handed become this span's children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.ns(Instant::now());
        out
    }

    /// Record an already-measured interval as a child of span `parent`,
    /// which may already be closed (used for the calls an engine makes back
    /// into a [`TimedApp`](crate::timed_app::TimedApp), which cannot hold
    /// the tracer while the engine runs).
    pub fn leaf_under(&mut self, parent: u32, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            rep: self.rep,
        });
    }

    /// Index the next span opened will get — lets a caller adopt leaves
    /// into a span after it closed.
    pub fn next_id(&self) -> u32 {
        self.spans.len() as u32
    }

    /// Hand over everything recorded so far and start an empty list.
    pub fn take(&mut self) -> Vec<Span> {
        self.stack.clear();
        std::mem::take(&mut self.spans)
    }
}

/// What one span name cost within a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameCost {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the part of each interval its
    /// child spans cover.
    pub self_ns: u64,
}

/// Reduce a span list (one repetition's, typically) to per-name costs.
/// The benchmark is single-threaded where it records spans, so children
/// of one span never overlap and "the part its children cover" is the sum
/// of their durations, clipped to the parent.
pub fn reduce(spans: &[Span]) -> BTreeMap<&'static str, NameCost> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(parent) = spans.get(p as usize) {
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p as usize] += hi.saturating_sub(lo);
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameCost> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// The layer of a span or metric name: the text before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, from per-name costs.
pub fn layer_self_ns(costs: &BTreeMap<&'static str, NameCost>) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, cost) in costs {
        *out.entry(layer_of(name)).or_default() += cost.self_ns;
    }
    out
}

/// One line per span: `{"id":…,"name":…,"start_ns":…,"end_ns":…,"parent":…,"rep":…}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
            s.name, s.start_ns, s.end_ns, s.rep
        );
    }
    out
}
