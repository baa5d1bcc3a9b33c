//! Spans around the public calls the benchmark makes into each layer,
//! kept in memory and attributed when the run ends.
//!
//! Every call is timed (the end-to-end metrics need the durations);
//! only a traced run also keeps the span. The round loop's own spans
//! come from the `dobs` flight recorder (`Event::RoundSpan`) and are
//! re-based onto this tracer's clock, so they nest inside the
//! `Session::step` spans that drove them.

use crate::alloc::AllocMark;
use std::time::Instant;

/// The layers time is attributed to: this repository's crates, split
/// where the benchmark can see a public boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `dgraph`: generators, blossom, matching validation.
    Dgraph,
    /// `dmatch::session`: session build and each `Session::step`
    /// (Generic's gathering, path enumeration, MIS and augmentation,
    /// Israeli–Itai's extraction), minus the round loop inside it.
    Session,
    /// `simnet`: the round loop, adversary included.
    Simnet,
    /// `dmatch::oracle`: oracle build and each query (ball extraction,
    /// `MicroNet` replay and certification happen inside).
    Oracle,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 4] = [Layer::Dgraph, Layer::Session, Layer::Simnet, Layer::Oracle];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Dgraph => "dgraph",
            Layer::Session => "dmatch.session",
            Layer::Simnet => "simnet",
            Layer::Oracle => "dmatch.oracle",
        }
    }
}

/// One recorded interval, in ns since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Start.
    pub t0: u64,
    /// End.
    pub t1: u64,
}

/// What a timed call returned and cost.
pub struct Call<R> {
    /// The call's result.
    pub value: R,
    /// Wall time, in seconds.
    pub secs: f64,
    /// Allocations made during the call.
    pub alloc: AllocMark,
}

/// The benchmark's clock. Wall time is what it measures; nothing it
/// reads steers a simulated result.
pub fn now() -> Instant {
    // dlint::allow(wall-clock, "the benchmark measures host time; simulated results never depend on it")
    Instant::now()
}

/// Times calls into the layers; keeps their spans when tracing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that keeps spans iff `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: now(),
            // Reserved up front so span bookkeeping rarely allocates
            // inside a measured call.
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    /// Is this a traced run?
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` as one call into `layer`.
    pub fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> Call<R> {
        let mark = AllocMark::now();
        let t0 = now();
        let value = f();
        let t1 = now();
        let alloc = mark.since();
        if self.on {
            let span = Span {
                layer,
                t0: self.ns(t0),
                t1: self.ns(t1),
            };
            self.spans.push(span);
        }
        Call {
            value,
            secs: (t1 - t0).as_secs_f64(),
            alloc,
        }
    }

    /// Keep a span measured elsewhere (the round loop's).
    pub fn push(&mut self, span: Span) {
        if self.on {
            self.spans.push(span);
        }
    }

    /// Self time per layer, in ns, over the spans starting at or after
    /// `from_ns`: a layer's span durations minus the part its child
    /// spans cover. Round spans are the only nested ones (inside
    /// `Session::step`), so the session layer's self time is its span
    /// total minus the round-loop total.
    pub fn self_ns(&self, from_ns: u64) -> [(Layer, u64); 4] {
        let mut total = [0u64; 4];
        for s in self.spans.iter().filter(|s| s.t0 >= from_ns) {
            let i = Layer::ALL.iter().position(|&l| l == s.layer).unwrap_or(0);
            total[i] += s.t1 - s.t0;
        }
        let [dgraph, session, simnet, oracle] = total;
        [
            (Layer::Dgraph, dgraph),
            (Layer::Session, session.saturating_sub(simnet)),
            (Layer::Simnet, simnet),
            (Layer::Oracle, oracle),
        ]
    }
}
