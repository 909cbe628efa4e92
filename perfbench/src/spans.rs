//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (nothing inside the simulator is
//! instrumented). A span's layer is its name up to the first `.`; a
//! layer's self time is its spans' durations minus the part covered by
//! their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    sim: usize,
}

/// Per-layer totals over every recorded span.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, sim: usize) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            sim,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and returns
    /// its duration in nanoseconds.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, sim: usize, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, sim);
        let out = f();
        self.exit(id);
        out
    }

    /// Summed duration (ns) and count of the closed spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.end_ns - s.start_ns, n + 1))
    }

    /// Calls, total and self time per layer.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let dur = s.end_ns - s.start_ns;
            let row = out.entry(layer).or_default();
            row.calls += 1;
            row.total_ns += dur;
            row.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The spans as JSONL, one object per span, after a `host` line.
    pub fn to_jsonl(&self, host_json: &str) -> String {
        let mut out = format!("{{\"type\":\"host\",\"host\":{host_json}}}\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"sim\":{}}}",
                s.name, s.start_ns, s.end_ns, s.sim
            );
        }
        out
    }

    /// A plain-text per-layer self-time table.
    pub fn layer_table(&self) -> String {
        let layers = self.layers();
        let all_self: u64 = layers.values().map(|l| l.self_ns).sum();
        let mut out = format!(
            "{:<10} {:>8} {:>12} {:>12} {:>7}\n",
            "layer", "calls", "total_ms", "self_ms", "self_%"
        );
        for (name, l) in &layers {
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
                name,
                l.calls,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / all_self.max(1) as f64
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        let root = spans.enter("bench.sim", 0);
        spans.time("core.tick", 0, || std::thread::sleep(std::time::Duration::from_millis(2)));
        let root_ns = spans.exit(root);
        let layers = spans.layers();
        let (core, bench) = (layers["core"], layers["bench"]);
        assert_eq!(core.calls, 1);
        assert_eq!(bench.total_ns, root_ns);
        assert_eq!(bench.self_ns, root_ns - core.total_ns);
        assert!(spans.to_jsonl("{}").lines().count() == 3);
        assert!(spans.layer_table().contains("core"));
    }
}
