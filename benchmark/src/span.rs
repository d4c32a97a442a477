//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented: every span here wraps a
//! call the benchmark itself makes into a public function. Spans stay
//! in memory during the run and are written as JSONL when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` indexes the enclosing span, `run` groups
/// the spans of one scenario, record or job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub run: u32,
}

/// An in-memory span recorder. Spans nest by call order: a span opened
/// while another is open becomes its child.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

impl Spans {
    pub fn new() -> Self {
        Spans::with_origin(Instant::now())
    }

    /// A recorder whose `start_ns` values count from `origin`, so
    /// recorders filled on several threads share one time axis.
    pub fn with_origin(origin: Instant) -> Self {
        Spans {
            enabled: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// A recorder that records nothing and reads no clock: untraced
    /// passes run the same code with this one.
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::new()
        }
    }

    /// Sets the run identifier stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.dur_ns = now - span.start_ns;
    }

    /// Times one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = call();
        self.exit(id);
        out
    }

    /// Records an already finished interval as a leaf of the innermost
    /// open span, for a call whose phases are known only afterwards.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            run: self.run,
        });
    }

    /// Appends the spans of `other` (recorded on another thread against
    /// the same origin), keeping their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    pub fn as_slice(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{},\"workload\":\"{workload}\",\"run\":{}}}",
                s.name, s.start_ns, s.dur_ns, s.run
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part covered by its
/// direct children (children of one recorder never overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns);
        }
    }
    own
}

/// The ledger of one traced run: self time summed per span name, and
/// the wall time it must add up to (the durations of the root spans).
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub wall_ns: u64,
}

impl Ledger {
    /// Builds the ledger over the spans whose root is named `root`.
    pub fn of(spans: &[Span], root: &str) -> Ledger {
        // A span belongs to the ledger if walking its parent chain ends
        // in a root span of the given name.
        let mut in_scope = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            in_scope[i] = match s.parent {
                None => s.name == root,
                Some(p) => in_scope[p as usize],
            };
        }
        let own = self_times(spans);
        let mut ledger = Ledger {
            self_ns: BTreeMap::new(),
            wall_ns: 0,
        };
        for (i, s) in spans.iter().enumerate() {
            if !in_scope[i] {
                continue;
            }
            if s.parent.is_none() {
                ledger.wall_ns += s.dur_ns;
            }
            *ledger.self_ns.entry(s.name).or_insert(0) += own[i];
        }
        ledger
    }

    /// Self time recorded under `name` (0 when the layer never ran).
    pub fn ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// The share of the wall time no layer span accounts for: the self
    /// time of the root spans, which is glue between the layer calls.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.ns(root) as f64 / self.wall_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            dur_ns,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 5, 40),
            span("a.inner", Some(1), 10, 15),
            span("b", Some(0), 50, 30),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 15, 30]);
    }

    #[test]
    fn ledger_adds_up_to_the_root_durations() {
        let spans = [
            span("scenario", None, 0, 100),
            span("sim.run", Some(0), 0, 60),
            span("dataplane.replay", Some(0), 60, 30),
            span("oracle", None, 100, 500),
            span("sim.run", Some(3), 100, 400),
            span("scenario", None, 600, 50),
            span("sim.run", Some(5), 600, 50),
        ];
        let ledger = Ledger::of(&spans, "scenario");
        assert_eq!(ledger.wall_ns, 150);
        assert_eq!(ledger.ns("sim.run"), 110);
        assert_eq!(ledger.ns("dataplane.replay"), 30);
        assert_eq!(ledger.ns("scenario"), 10);
        assert_eq!(ledger.ns("oracle"), 0);
        assert_eq!(ledger.self_ns.values().sum::<u64>(), ledger.wall_ns);
        assert!((ledger.unattributed_share("scenario") - 10.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_by_call_order_and_absorbs_other_threads() {
        let origin = Instant::now();
        let mut a = Spans::with_origin(origin);
        a.set_run(7);
        let outer = a.enter("job");
        let got = a.time("serve.admit", || 41 + 1);
        a.exit(outer);
        assert_eq!(got, 42);
        assert_eq!(a.as_slice()[1].parent, Some(0));
        assert_eq!(a.as_slice()[1].run, 7);
        assert!(a.as_slice()[0].dur_ns >= a.as_slice()[1].dur_ns);

        let mut b = Spans::with_origin(origin);
        let outer = b.enter("job");
        b.time("serve.admit", || ());
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.as_slice().len(), 4);
        assert_eq!(a.as_slice()[3].parent, Some(2));
    }

    #[test]
    fn disabled_recorder_still_runs_the_call() {
        let mut off = Spans::disabled();
        let outer = off.enter("job");
        assert_eq!(off.time("serve.admit", || 5), 5);
        off.exit(outer);
        assert!(off.as_slice().is_empty());
    }
}
