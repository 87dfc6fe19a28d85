//! Tracing for the `--trace` run: a program wrapper that times the calls
//! the engine makes into the protocol, and an in-memory span log recorded
//! around the benchmark's own calls into each layer.
//!
//! End-to-end numbers never come from a traced run; the ratio between a
//! traced and an untraced repetition is reported as `trace.overhead_ratio`.

use ssim::snapshot::{Persist, Reader, SnapshotError, Writer};
use ssim::workload::{Key, RouteStep, Router};
use ssim::{Ctx, NodeId, Program};
use std::cell::Cell;
use std::time::Instant;

/// Nanoseconds and call counts accumulated by every [`Timed`] program on
/// this thread (traced runs execute on one thread).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    pub step_ns: u64,
    pub step_calls: u64,
    pub route_ns: u64,
    pub route_calls: u64,
}

thread_local! {
    static CALLS: Cell<Calls> = const { Cell::new(Calls {
        step_ns: 0, step_calls: 0, route_ns: 0, route_calls: 0,
    }) };
}

impl Calls {
    pub fn now() -> Self {
        CALLS.with(Cell::get)
    }

    fn since(self, earlier: Self) -> Self {
        Self {
            step_ns: self.step_ns - earlier.step_ns,
            step_calls: self.step_calls - earlier.step_calls,
            route_ns: self.route_ns - earlier.route_ns,
            route_calls: self.route_calls - earlier.route_calls,
        }
    }
}

/// A node program whose `step` and `route` calls are timed. Everything is
/// delegated, so a runtime of `Timed<P>` executes and serializes exactly
/// like a runtime of `P`.
#[derive(Debug, Clone)]
pub struct Timed<P>(pub P);

impl<P: Program> Program for Timed<P> {
    type Msg = P::Msg;

    fn step(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        let t0 = Instant::now();
        self.0.step(ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        CALLS.with(|c| {
            let mut v = c.get();
            v.step_ns += ns;
            v.step_calls += 1;
            c.set(v);
        });
    }

    fn is_quiescent(&self) -> bool {
        self.0.is_quiescent()
    }
}

impl<P: Router> Router for Timed<P> {
    fn route(&self, key: Key, neighbors: &[NodeId]) -> RouteStep {
        let t0 = Instant::now();
        let hop = self.0.route(key, neighbors);
        let ns = t0.elapsed().as_nanos() as u64;
        CALLS.with(|c| {
            let mut v = c.get();
            v.route_ns += ns;
            v.route_calls += 1;
            c.set(v);
        });
        hop
    }
}

impl<P: Persist> Persist for Timed<P> {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self(P::load(r)?))
    }
}

/// Span names. A layer's metrics are sums over the spans of one name.
pub const SETUP: &str = "setup";
pub const REPETITION: &str = "repetition";
pub const STEP: &str = "ssim.runtime.step";
pub const PROGRAM_STEP: &str = "program.step";
pub const ROUTE: &str = "program.route";
pub const LEGALITY: &str = "ssim.monitor.legality";
pub const INJECT: &str = "ssim.fault.inject";
pub const SAVE: &str = "ssim.snapshot.save";
pub const RESTORE: &str = "ssim.snapshot.restore";
pub const UNSEAL: &str = "ssim.snapshot.unseal";

/// One recorded interval. `calls` is 1 for a span around a single call and
/// the number of calls folded into an aggregated child (the wrapper's
/// per-round `step`/`route` totals: one span per call would be ~14k spans a
/// round on `serve-lookups`).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub calls: u64,
}

/// Sum over all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub ns: u64,
    pub spans: u64,
    pub calls: u64,
}

impl Total {
    pub fn ns_per_call(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// The span log of one traced workload run, kept in memory until the run
/// ends, plus the per-round tallies taken at the same boundaries.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Rounds stepped under [`Tracer::step`].
    pub rounds: u64,
    /// Live hosts summed over those rounds.
    pub host_rounds: u64,
    /// Messages sent and programs stepped in those rounds (`RunMetrics`
    /// deltas, filled in by the caller of [`Tracer::step`]).
    pub messages: u64,
    pub activations: u64,
    /// Host-rounds spent in each protocol phase (CBT, CHORD, DONE), from a
    /// census of the programs before each round.
    pub phase_host_rounds: [u64; 3],
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rounds: 0,
            host_rounds: 0,
            messages: 0,
            activations: 0,
            phase_host_rounds: [0; 3],
        }
    }

    fn clock(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let t = self.clock();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent: self.open.last().copied(),
            calls: 1,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.clock();
    }

    /// Record `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// One engine round as a span, with the wrapper's totals for the round
    /// attached as aggregated children (placed at the parent's start; only
    /// their duration and call count carry information).
    pub fn step(&mut self, live_hosts: usize, phases: [u64; 3], round: impl FnOnce()) {
        let before = Calls::now();
        let id = self.enter(STEP);
        round();
        self.exit(id);
        let calls = Calls::now().since(before);
        let start = self.spans[id].start_ns;
        for (name, ns, n) in [
            (PROGRAM_STEP, calls.step_ns, calls.step_calls),
            (ROUTE, calls.route_ns, calls.route_calls),
        ] {
            if n > 0 {
                self.spans.push(Span {
                    name,
                    start_ns: start,
                    end_ns: start + ns,
                    parent: Some(id),
                    calls: n,
                });
            }
        }
        self.rounds += 1;
        self.host_rounds += live_hosts as u64;
        for (total, now) in self.phase_host_rounds.iter_mut().zip(phases) {
            *total += now;
        }
    }

    pub fn total(&self, name: &str) -> Total {
        let mut t = Total::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            t.ns += s.end_ns - s.start_ns;
            t.spans += 1;
            t.calls += s.calls;
        }
        t
    }

    /// The spans as a JSON array (ids are positions in the array).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.calls
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut tr = Tracer::new();
        let outer = tr.enter("outer");
        tr.step(4, [1, 1, 2], || {});
        tr.step(4, [0, 0, 4], || {});
        tr.exit(outer);
        assert_eq!(tr.rounds, 2);
        assert_eq!(tr.host_rounds, 8);
        assert_eq!(tr.phase_host_rounds, [1, 1, 6]);
        let steps = tr.total(STEP);
        assert_eq!((steps.spans, steps.calls), (2, 2));
        assert!(tr
            .spans
            .iter()
            .filter(|s| s.name == STEP)
            .all(|s| s.parent == Some(outer)));
        assert!(tr.total("outer").ns >= steps.ns);
        // No Timed program ran inside the rounds: no aggregated children.
        assert_eq!(tr.total(PROGRAM_STEP), Total::default());
        assert!(tr.spans_json().starts_with("[{\"id\":0,\"name\":\"outer\""));
    }
}
