//! The benchmark's own span recorder.
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! layer; nothing inside the program is instrumented. Every span feeds a
//! per-name accumulator (count, total, self time = duration minus the part
//! its child spans cover), and one closed span in [`SAMPLE_EVERY`] is kept
//! whole (name, start, end, parent, repetition id). Everything stays in
//! memory until [`Tracer::to_json`] is written at exit.
//!
//! A disabled tracer reads no clock: every call is one branch.

use std::time::Instant;

use serde_json::{json, Value};

/// One closed span in this many is kept as a full record.
pub const SAMPLE_EVERY: u64 = 1024;

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of durations minus child-span time, nanoseconds.
    pub self_ns: u64,
}

struct Open {
    name: usize,
    start_ns: u64,
    child_ns: u64,
}

struct Sampled {
    name: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    rep: u32,
}

/// Span recorder over a fixed table of span names.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    names: &'static [&'static str],
    acc: Vec<Acc>,
    stack: Vec<Open>,
    sampled: Vec<Sampled>,
    closed: u64,
    rep: u32,
}

impl Tracer {
    /// A recorder for spans named by index into `names`; records nothing
    /// (and reads no clock) unless `on`.
    pub fn new(names: &'static [&'static str], on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            names,
            acc: vec![Acc::default(); names.len()],
            stack: Vec::new(),
            sampled: Vec::new(),
            closed: 0,
            rep: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off. Only between spans: a span opened
    /// while on must be closed while on.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "recording toggled inside a span");
        self.on = on;
    }

    /// Sets the repetition id stamped on sampled spans.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: usize) {
        if self.on {
            let start_ns = self.now_ns();
            self.stack.push(Open {
                name,
                start_ns,
                child_ns: 0,
            });
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if self.on {
            let end_ns = self.now_ns();
            self.close(end_ns);
        }
    }

    /// Closes the innermost span and opens a sibling at the same instant:
    /// one clock read where back-to-back spans would take two.
    #[inline]
    pub fn next(&mut self, name: usize) {
        if self.on {
            let at = self.now_ns();
            self.close(at);
            self.stack.push(Open {
                name,
                start_ns: at,
                child_ns: 0,
            });
        }
    }

    /// Renames the innermost open span: the name can depend on what the
    /// spanned call turned out to do.
    #[inline]
    pub fn rename(&mut self, name: usize) {
        if self.on {
            self.stack.last_mut().expect("rename without enter").name = name;
        }
    }

    fn close(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("span exit without enter");
        let dur = end_ns - open.start_ns;
        let acc = &mut self.acc[open.name];
        acc.count += 1;
        acc.total_ns += dur;
        acc.self_ns += dur.saturating_sub(open.child_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.name
        });
        self.closed += 1;
        if self.closed.is_multiple_of(SAMPLE_EVERY) {
            self.sampled.push(Sampled {
                name: open.name,
                parent,
                start_ns: open.start_ns,
                end_ns,
                rep: self.rep,
            });
        }
    }

    /// The accumulator of span `name`.
    pub fn acc(&self, name: usize) -> Acc {
        self.acc[name]
    }

    /// Accumulators and sampled spans as one JSON value.
    pub fn to_json(&self) -> Value {
        let accs: Vec<Value> = self
            .acc
            .iter()
            .zip(self.names)
            .map(|(a, name)| {
                json!({
                    "name": name,
                    "count": a.count,
                    "total_ns": a.total_ns,
                    "self_ns": a.self_ns
                })
            })
            .collect();
        let spans: Vec<Value> = self
            .sampled
            .iter()
            .map(|s| {
                json!({
                    "name": self.names[s.name],
                    "parent": s.parent.map(|p| self.names[p]),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "rep": s.rep
                })
            })
            .collect();
        json!({ "sample_every": SAMPLE_EVERY, "accumulators": accs, "spans": spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["outer", "inner"];

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(NAMES, true);
        t.enter(0);
        t.enter(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.next(1);
        t.exit();
        t.exit();
        let (outer, inner) = (t.acc(0), t.acc(1));
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(NAMES, false);
        t.enter(0);
        t.next(1);
        t.exit();
        assert_eq!(t.acc(0).count + t.acc(1).count, 0);
    }
}
