//! The four workloads. Each makes its inputs from the run's seed,
//! times the public calls into `dgraph`, `simnet` and `dmatch`, checks
//! every operation, and returns its metrics.
//!
//! The timed operation is one session, or one batch of oracle queries.
//! Every blossom optimum, session and oracle query is checked and
//! counted; a failed check counts as failed instead of aborting the
//! run. A workload's input set is many graphs, each with its own
//! session seed. The first instances (or query batches) form a
//! deterministic pass that yields every simulated metric; the run then
//! continues through the input set, and around it again, until
//! `--seconds` have passed, checking that each repeat reproduces its
//! first digest. Right before each repeat it times a fixed reference
//! kernel; the timed end-to-end metrics are each instance's best
//! repeat, over the kernel's best time across the same repeats.

use crate::alloc::{peak_rss_mb, AllocMark};
use crate::stats::{max, median, min, quantile, tail, Digest};
use crate::trace::{now, Layer, Span, Tracer};
use bench_harness::workloads::{Family, Workload};
use dgraph::{Graph, Matching, NodeId};
use dmatch::session::Phase;
use dmatch::{Algorithm, MatchingOracle, RunReport, Session};
use dobs::{Event, Registry, TraceSession};
use simnet::stats::timing;
use simnet::{ExecCfg, FaultPlan, NetStats, SplitMix64};
use std::collections::BTreeMap;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["generic-gnp", "ii-verify", "oracle-geo", "ii-faults"];

/// Flight-recorder capacity per traced session. Large enough that no
/// round span of the biggest session is evicted; evictions are
/// reported as a failure of the traced run.
const TRACE_CAPACITY: usize = 1 << 20;

/// One invocation's settings.
pub struct Config {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measuring time: operations repeat until this much has passed.
    pub seconds: f64,
    /// Keep spans and report per-layer metrics.
    pub trace: bool,
    /// Small sizes, for the benchmark's own tests.
    pub smoke: bool,
}

/// A named value with its unit and the samples behind it.
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How it was computed (sample count, percentile).
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

/// Everything a run reports.
pub struct Outcome {
    /// End-to-end metrics (meaningful in an untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (meaningful in a traced run).
    pub layers: Vec<Metric>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Digest of every simulated result of the deterministic pass.
    pub digest: u64,
    /// Human-readable detail: failures, per-phase breakdown.
    pub lines: Vec<String>,
}

/// Run workload `name`, or `None` if there is no such workload.
pub fn run(name: &str, cfg: &Config) -> Option<Outcome> {
    let small = cfg.smoke;
    // Blossom's cost varies widely from graph to graph, so every
    // workload spreads its operations over several graphs. The timed
    // metrics take each instance's best repeat, so the sizes keep an
    // operation short enough for 20 or more repeats of every instance
    // in a run.
    let spec = match name {
        "generic-gnp" => SessionSpec {
            family: Family::Gnp,
            n: if small { 128 } else { 192 },
            alg: Algorithm::Generic { k: 2 },
            faults: FaultPlan::NONE,
            bound: Some((2, 3)),
            graphs: if small { 4 } else { 12 },
            distinct: if small { 2 } else { 12 },
            setup_reps: if small { 4 } else { 96 },
            verify_reps: 16,
            xcheck: 16,
        },
        "ii-verify" => SessionSpec {
            family: Family::Gnp,
            n: if small { 2048 } else { 1 << 13 },
            alg: Algorithm::IsraeliItai,
            faults: FaultPlan::NONE,
            bound: Some((1, 2)),
            graphs: if small { 4 } else { 32 },
            distinct: if small { 4 } else { 32 },
            setup_reps: if small { 4 } else { 256 },
            verify_reps: 3,
            xcheck: 8,
        },
        "ii-faults" => SessionSpec {
            family: Family::Gnp,
            n: if small { 1024 } else { 1 << 12 },
            alg: Algorithm::IsraeliItai,
            faults: FaultPlan::drop(0.1),
            bound: None,
            graphs: if small { 4 } else { 8 },
            distinct: if small { 2 } else { 8 },
            setup_reps: if small { 4 } else { 64 },
            verify_reps: 3,
            xcheck: 8,
        },
        "oracle-geo" => {
            let spec = OracleSpec {
                n: if small { 2048 } else { 1 << 12 },
                batch: 16,
                distinct: if small { 4 } else { 96 },
                graphs: if small { 2 } else { 32 },
                setup_reps: if small { 2 } else { 256 },
                verify_reps: 4,
            };
            return Some(oracle_geo(&spec, cfg));
        }
        _ => return None,
    };
    Some(sessions(&spec, cfg))
}

/// A derived stream: independent streams for the graph, each session
/// and each query batch of one workload seed.
fn stream(seed: u64, salt: u64) -> SplitMix64 {
    SplitMix64::for_node(seed, salt)
}

/// A derived seed (the first output of [`stream`]).
fn mix(seed: u64, salt: u64) -> u64 {
    stream(seed, salt).next()
}

/// The simulated counters one session reports.
#[derive(Clone, Copy)]
struct Sim {
    rounds: u64,
    node_steps: u64,
    messages: u64,
    bits: u64,
    max_msg_bits: u64,
    peak_inbox: u64,
    dropped: u64,
    delayed: u64,
}

impl Sim {
    fn of(s: &NetStats) -> Self {
        Sim {
            rounds: s.rounds,
            node_steps: s.node_steps,
            messages: s.messages,
            bits: s.bits,
            max_msg_bits: s.max_msg_bits,
            peak_inbox: s.peak_inbox,
            dropped: s.dropped,
            delayed: s.delayed,
        }
    }
}

/// Per-session measurements of a traced session.
#[derive(Default)]
struct SessionTrace {
    /// `Session::step` durations, by phase label.
    phases: Vec<(String, f64)>,
    /// Sum of the round loop's spans.
    round_ns: u64,
    /// Sum of the step spans.
    step_ns: u64,
    /// Events the recorder evicted (must be 0, or round spans may be
    /// missing).
    lost: u64,
}

struct SessionRun {
    report: RunReport,
    secs: f64,
    alloc: AllocMark,
    trace: SessionTrace,
}

/// Run a built session to completion: in one `run_to_completion` call
/// untraced, or step by step under a flight recorder when traced.
fn run_session(tr: &mut Tracer, mut sess: Session) -> SessionRun {
    if !tr.on() {
        let call = tr.call(Layer::Session, || sess.run_to_completion());
        return SessionRun {
            report: call.value,
            secs: call.secs,
            alloc: call.alloc,
            trace: SessionTrace::default(),
        };
    }
    let recorder = TraceSession::start(TRACE_CAPACITY);
    let base = tr.ns(dobs::plane::epoch().expect("a trace session is installed"));
    let mark = AllocMark::now();
    let t0 = now();
    let mut trace = SessionTrace::default();
    loop {
        let step = tr.call(Layer::Session, || sess.step());
        trace.step_ns += (step.secs * 1e9) as u64;
        match step.value {
            Phase::Ran(info) => trace.phases.push((info.label, step.secs)),
            Phase::Done | Phase::Aborted => break,
        }
    }
    let report = tr.call(Layer::Session, || sess.report()).value;
    let secs = t0.elapsed().as_secs_f64();
    let alloc = mark.since();
    let rec = recorder.finish();
    for ev in rec.events() {
        if let Event::RoundSpan { t0_ns, t1_ns, .. } = *ev {
            trace.round_ns += t1_ns - t0_ns;
            tr.push(Span {
                layer: Layer::Simnet,
                t0: base + t0_ns,
                t1: base + t1_ns,
            });
        }
    }
    trace.lost = rec.dropped();
    SessionRun {
        report,
        secs,
        alloc,
        trace,
    }
}

/// A fixed CPU kernel that uses none of the repository's code: make
/// 4096 pseudo-random words and sort them, four times. Its data is
/// made afresh each time, so the caches the operation before it left
/// behind barely matter. Returns its time in seconds.
fn reference() -> f64 {
    let t = now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut sum = 0u64;
    for _ in 0..4 {
        let mut words: Vec<u64> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        words.sort_unstable();
        sum = sum.wrapping_add(words[2048]);
    }
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64()
}

/// Add sample `x` to the samples of instance `i`.
fn sample(per: &mut Vec<Vec<f64>>, i: usize, x: f64) {
    if per.len() <= i {
        per.resize(i + 1, Vec::new());
    }
    per[i].push(x);
}

/// Counters shared by every workload.
#[derive(Default)]
struct Acc {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Setup times per graph.
    setup: Vec<Vec<f64>>,
    gen: Vec<f64>,
    gen_alloc: Vec<f64>,
    build: Vec<f64>,
    blossom: Vec<f64>,
    blossom_alloc: Vec<f64>,
    /// Blossom times per graph.
    verify: Vec<Vec<f64>>,
    /// Latency of each repeat of each instance's timed operation
    /// (session or query batch), seconds, per instance.
    ops: Vec<Vec<f64>>,
    /// Reference-kernel time before each repeat, per instance.
    refs: Vec<Vec<f64>>,
    /// Wall time of the operation loop, side measurements included.
    loop_secs: f64,
    // Deterministic pass.
    ratios: Vec<f64>,
    retained: Vec<f64>,
    inflation: Vec<f64>,
    sims: Vec<Sim>,
    digest: Digest,
    oracle: Registry,
    // Traced run only.
    solve_alloc: Vec<AllocMark>,
    phases: BTreeMap<String, Vec<f64>>,
    round_s: Vec<f64>,
    offround_s: Vec<f64>,
    round_ns: u64,
    node_steps: u64,
    timings: Registry,
    hit: Vec<f64>,
    miss: Vec<f64>,
    untraced_ref: Vec<f64>,
    traced_ref: Vec<f64>,
    /// Time spent on side measurements and the reference kernel inside
    /// the operation loop.
    side_secs: f64,
}

/// How a workload makes its inputs.
struct Inputs<'a> {
    /// Generate graph `j`.
    gen: &'a dyn Fn(usize) -> Workload,
    /// The layer whose build follows generation.
    build_layer: Layer,
    /// Build what graph `j`'s operations run on (and drop it).
    build: &'a dyn Fn(usize, &Workload),
}

/// `reps` repetitions of a side measurement, due at evenly spaced
/// points of the run.
struct Spread {
    done: usize,
    reps: usize,
    seconds: f64,
}

impl Spread {
    fn new(done: usize, reps: usize, seconds: f64) -> Self {
        Spread {
            done,
            reps: reps.max(done),
            seconds,
        }
    }

    /// Is the next repetition due at `elapsed`? Counts it if so.
    fn due(&mut self, elapsed: f64) -> bool {
        let due =
            self.done < self.reps && elapsed >= self.seconds * self.done as f64 / self.reps as f64;
        self.done += usize::from(due);
        due
    }

    fn finished(&self) -> bool {
        self.done == self.reps
    }
}

/// The side measurements of one run: setups and re-verifications.
struct SideRuns {
    setups: Spread,
    verifies: Spread,
}

impl SideRuns {
    /// After the first setup and verification of each of `graphs`
    /// graphs, `setups` setups and `passes` verifications of every
    /// graph in all.
    fn new(graphs: usize, setups: usize, passes: usize, seconds: f64) -> Self {
        SideRuns {
            setups: Spread::new(graphs, setups, seconds),
            verifies: Spread::new(graphs, passes * graphs, seconds),
        }
    }

    fn finished(&self) -> bool {
        self.setups.finished() && self.verifies.finished()
    }
}

impl Acc {
    /// Count one checked operation; any problem fails it.
    fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.extend(problems);
            }
        }
    }

    /// Keep a traced main-operation session's measurements.
    fn traced(&mut self, run: &SessionRun) {
        for (label, secs) in &run.trace.phases {
            self.phases.entry(label.clone()).or_default().push(*secs);
        }
        self.round_s.push(run.trace.round_ns as f64 / 1e9);
        self.offround_s
            .push(run.trace.step_ns.saturating_sub(run.trace.round_ns) as f64 / 1e9);
        self.round_ns += run.trace.round_ns;
        self.node_steps += run.report.stats.node_steps;
        self.solve_alloc.push(run.alloc);
        self.timings.absorb(&run.report.stats.timings);
        if run.trace.lost > 0 {
            self.op(vec![format!(
                "trace: {} flight-recorder events evicted",
                run.trace.lost
            )]);
        }
    }

    /// Time the exact optimum (blossom) of graph `j` and check it.
    fn blossom(&mut self, tr: &mut Tracer, j: usize, g: &Graph) -> usize {
        let b = tr.call(Layer::Dgraph, || dgraph::blossom::max_matching(g));
        self.blossom.push(b.secs);
        sample(&mut self.verify, j, b.secs);
        self.blossom_alloc.push(b.alloc.mb());
        let valid = tr.call(Layer::Dgraph, || b.value.validate(g)).value;
        self.op(valid.err().into_iter().collect());
        b.value.size()
    }

    /// Time one setup: generate input `j` and build what its
    /// operations run on.
    fn setup_once(&mut self, tr: &mut Tracer, j: usize, inputs: &Inputs) -> Workload {
        let t = now();
        let g = tr.call(Layer::Dgraph, || (inputs.gen)(j));
        let built = tr.call(inputs.build_layer, || (inputs.build)(j, &g.value));
        sample(&mut self.setup, j, t.elapsed().as_secs_f64());
        self.gen.push(g.secs);
        self.gen_alloc.push(g.alloc.mb());
        self.build.push(built.secs);
        g.value
    }

    /// The exact optimum of every graph.
    fn verify_all(&mut self, tr: &mut Tracer, graphs: &[Workload]) -> Vec<usize> {
        graphs
            .iter()
            .enumerate()
            .map(|(j, w)| self.blossom(tr, j, &w.graph))
            .collect()
    }

    /// Run the setups and re-verifications that are due, one graph at a
    /// time, so their samples spread evenly over the run instead of one
    /// early window.
    fn side(
        &mut self,
        tr: &mut Tracer,
        run: &mut SideRuns,
        inputs: &Inputs,
        graphs: &[Workload],
        opt: &[usize],
        elapsed: f64,
    ) {
        let t = now();
        while run.setups.due(elapsed) {
            drop(self.setup_once(tr, (run.setups.done - 1) % graphs.len(), inputs));
        }
        while run.verifies.due(elapsed) {
            let j = (run.verifies.done - 1) % graphs.len();
            if self.blossom(tr, j, &graphs[j].graph) != opt[j] {
                self.op(vec![format!(
                    "blossom: optimum of graph {j} differs between runs"
                )]);
            }
        }
        self.side_secs += t.elapsed().as_secs_f64();
    }

    /// Ask `queries` seeded vertices of a fresh oracle and check each
    /// answer against `served`, the global run it must reproduce.
    /// Returns the oracle's probe counters.
    #[allow(clippy::too_many_arguments)]
    fn queries(
        &mut self,
        tr: &mut Tracer,
        g: &Graph,
        alg: Algorithm,
        seed: u64,
        served: &Matching,
        queries: usize,
        mut rng: SplitMix64,
        digest: &mut Digest,
    ) -> Registry {
        let mut oracle = tr
            .call(Layer::Oracle, || {
                MatchingOracle::on(g).algorithm(alg).seed(seed).build()
            })
            .value;
        for _ in 0..queries {
            let v = rng.below(g.n() as u64) as NodeId;
            let hits = oracle.metrics().counter("oracle_memo_hits");
            let q = tr.call(Layer::Oracle, || oracle.query_node(v));
            if oracle.metrics().counter("oracle_memo_hits") > hits {
                self.hit.push(q.secs);
            } else {
                self.miss.push(q.secs);
            }
            digest.word(q.value.map_or(u64::MAX, u64::from));
            let want = served.mate(v);
            self.op(if q.value == want {
                vec![]
            } else {
                vec![format!(
                    "oracle: mate({v}) = {:?}, global run has {want:?}",
                    q.value
                )]
            });
        }
        oracle.metrics().clone()
    }

    /// Mean of a simulated counter over the deterministic pass.
    fn sim_mean(&self, f: impl Fn(&Sim) -> u64) -> f64 {
        self.sims.iter().map(|s| f(s) as f64).sum::<f64>() / self.sims.len().max(1) as f64
    }

    /// Assemble the outcome. `wall` is the traced run's workload wall
    /// time, `from_ns` where its spans start.
    fn finish(self, tr: &Tracer, wall: f64, from_ns: u64, digest: u64) -> Outcome {
        let n = |xs: &[f64]| format!("median of {}", xs.len());
        // Host speed on a shared machine drifts within a run and from
        // run to run. Each instance's best repeat takes out the first:
        // it is the time the operation needs when the host runs it at
        // full speed. Dividing it by the best time of the reference
        // kernel, timed right before each of the same repeats, takes
        // out the second.
        let best = |per: &[Vec<f64>]| per.iter().map(|xs| min(xs)).collect::<Vec<f64>>();
        let reps = |per: &[Vec<f64>]| {
            let counts: Vec<f64> = per.iter().map(|xs| xs.len() as f64).collect();
            format!(
                "over {} instances, each one's best of {} to {} repeats",
                per.len(),
                min(&counts),
                max(&counts)
            )
        };
        let (setup_best, op_best, ref_best) =
            (best(&self.setup), best(&self.ops), best(&self.refs));
        let cost: Vec<f64> = op_best.iter().zip(&ref_best).map(|(o, r)| o / r).collect();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let all_ops: Vec<f64> = self.ops.iter().flatten().copied().collect();
        let mut lines: Vec<String> = self.failures.iter().map(|f| format!("FAIL {f}")).collect();
        let e2e = vec![
            metric(
                "setup_s",
                median(&setup_best),
                "s",
                format!("median {}", reps(&self.setup)),
            ),
            metric(
                "op_cost",
                median(&cost),
                "ref",
                format!(
                    "median {}, over the reference kernel's best",
                    reps(&self.ops)
                ),
            ),
            metric(
                "op_cost_mean",
                mean(&cost),
                "ref",
                format!("mean {}, over the reference kernel's best", reps(&self.ops)),
            ),
            metric(
                "peak_rss_mb",
                peak_rss_mb().unwrap_or(f64::NAN),
                "MB",
                "VmHWM".into(),
            ),
            metric(
                "approx_ratio",
                min(&self.ratios),
                "ratio",
                format!("min of {}", self.ratios.len()),
            ),
            metric(
                "retained_ratio",
                if self.retained.is_empty() {
                    1.0
                } else {
                    min(&self.retained)
                },
                "ratio",
                format!("min of {} (1 when fault-free)", self.retained.len()),
            ),
            metric(
                "sim_rounds",
                self.sim_mean(|s| s.rounds),
                "rounds",
                format!("mean of {}", self.sims.len()),
            ),
            metric(
                "sim_bits",
                self.sim_mean(|s| s.bits),
                "bits",
                format!("mean of {}", self.sims.len()),
            ),
        ];

        let verify: f64 = self.verify.iter().map(|xs| min(xs)).sum();
        lines.push(format!(
            "verify_s = {verify} s (blossom over all {} graphs; per layer as dgraph.verify_s)",
            self.verify.len()
        ));
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.4}", quantile(&all_ops, d as f64 / 10.0) * 1e3))
            .collect();
        let (tp, tail_v) = tail(&all_ops);
        lines.push(format!(
            "op latency over all {} repeats: median {:.4} ms, p{tp} {:.4} ms, deciles ms: {}",
            all_ops.len(),
            median(&all_ops) * 1e3,
            tail_v * 1e3,
            deciles.join(" ")
        ));
        lines.push(format!(
            "op_best_ms = {:.6} ms (median {}); ops_per_s = {:.4} 1/s (instances over the sum of their best times); reference kernel best = {:.3} us (median over instances)",
            median(&op_best) * 1e3,
            reps(&self.ops),
            op_best.len() as f64 / op_best.iter().sum::<f64>(),
            median(&ref_best) * 1e6
        ));
        lines.push(format!(
            "loop throughput: {:.4} ops/s ({} ops in {:.3} s, side measurements and reference kernel left out)",
            all_ops.len() as f64 / (self.loop_secs - self.side_secs),
            all_ops.len(),
            self.loop_secs - self.side_secs
        ));
        let us = |xs: &[f64], q: f64| quantile(xs, q) * 1e6;
        let all_phases: Vec<f64> = self.phases.values().flatten().copied().collect();
        for (label, xs) in &self.phases {
            lines.push(format!(
                "phase {label:?}: median {:.6} s over {}",
                median(xs),
                xs.len()
            ));
        }
        let o = &self.oracle;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let upd = self.timings.hist(timing::SPARSE_UPDATE_NS);
        let self_ns = tr.self_ns(from_ns);
        let covered: u64 = self_ns.iter().map(|&(_, ns)| ns).sum();
        let wall_ns = wall * 1e9;
        let mut layers = vec![
            metric("dgraph.gen_s", median(&self.gen), "s", n(&self.gen)),
            metric(
                "dgraph.gen_alloc_mb",
                median(&self.gen_alloc),
                "MB",
                n(&self.gen_alloc),
            ),
            metric(
                "dgraph.blossom_s",
                median(&self.blossom),
                "s",
                n(&self.blossom),
            ),
            metric(
                "dgraph.blossom_alloc_mb",
                median(&self.blossom_alloc),
                "MB",
                n(&self.blossom_alloc),
            ),
            metric(
                "dgraph.verify_s",
                verify,
                "s",
                format!(
                    "sum over {} graphs of the best of {} blossom runs each",
                    self.verify.len(),
                    self.verify.first().map_or(0, Vec::len)
                ),
            ),
            metric("dmatch.build_s", median(&self.build), "s", n(&self.build)),
            metric("dmatch.phase_s", median(&all_phases), "s", n(&all_phases)),
            metric(
                "dmatch.offround_s",
                median(&self.offround_s),
                "s",
                n(&self.offround_s),
            ),
            metric(
                "dmatch.solve_alloc_mb",
                median(&self.solve_alloc.iter().map(|a| a.mb()).collect::<Vec<_>>()),
                "MB",
                format!("median of {}", self.solve_alloc.len()),
            ),
            metric(
                "dmatch.solve_allocs",
                median(
                    &self
                        .solve_alloc
                        .iter()
                        .map(|a| a.events as f64)
                        .collect::<Vec<_>>(),
                ),
                "count",
                format!("median of {}", self.solve_alloc.len()),
            ),
            metric(
                "simnet.round_s",
                median(&self.round_s),
                "s",
                n(&self.round_s),
            ),
            metric(
                "simnet.ns_per_node_step",
                ratio(self.round_ns, self.node_steps),
                "ns",
                format!("{} node steps", self.node_steps),
            ),
            metric(
                "simnet.update_ns_p50",
                upd.map_or(0, |h| h.p50()) as f64,
                "ns",
                format!("{} rounds", upd.map_or(0, |h| h.count())),
            ),
            metric(
                "simnet.update_ns_p99",
                upd.map_or(0, |h| h.p99()) as f64,
                "ns",
                format!("{} rounds", upd.map_or(0, |h| h.count())),
            ),
            metric(
                "simnet.rounds",
                self.sim_mean(|s| s.rounds),
                "rounds",
                String::new(),
            ),
            metric(
                "simnet.node_steps",
                self.sim_mean(|s| s.node_steps),
                "count",
                String::new(),
            ),
            metric(
                "simnet.messages",
                self.sim_mean(|s| s.messages),
                "count",
                String::new(),
            ),
            metric(
                "simnet.bits",
                self.sim_mean(|s| s.bits),
                "bits",
                String::new(),
            ),
            metric(
                "simnet.max_msg_bits",
                self.sim_mean(|s| s.max_msg_bits),
                "bits",
                String::new(),
            ),
            metric(
                "simnet.peak_inbox",
                self.sim_mean(|s| s.peak_inbox),
                "count",
                String::new(),
            ),
            metric(
                "simnet.dropped",
                self.sim_mean(|s| s.dropped),
                "count",
                String::new(),
            ),
            metric(
                "simnet.delayed",
                self.sim_mean(|s| s.delayed),
                "count",
                String::new(),
            ),
            metric(
                "simnet.rounds_inflation",
                if self.inflation.is_empty() {
                    1.0
                } else {
                    median(&self.inflation)
                },
                "ratio",
                format!("median of {} (1 when fault-free)", self.inflation.len()),
            ),
            metric("oracle.hit_us", us(&self.hit, 0.5), "us", n(&self.hit)),
            metric(
                "oracle.miss_us_p50",
                us(&self.miss, 0.5),
                "us",
                n(&self.miss),
            ),
            metric(
                "oracle.miss_us_p99",
                us(&self.miss, 0.99),
                "us",
                format!("p99 of {}", self.miss.len()),
            ),
            metric(
                "oracle.probed_per_query",
                ratio(
                    o.counter("oracle_probed_nodes"),
                    o.counter("oracle_queries"),
                ),
                "count",
                String::new(),
            ),
            metric(
                "oracle.balls_per_miss",
                ratio(o.counter("oracle_balls"), o.counter("oracle_misses")),
                "count",
                String::new(),
            ),
            metric(
                "oracle.memo_hit_ratio",
                ratio(o.counter("oracle_memo_hits"), o.counter("oracle_queries")),
                "ratio",
                String::new(),
            ),
            metric(
                "oracle.ball_radius_p50",
                o.hist("oracle_ball_radius").map_or(0, |h| h.p50()) as f64,
                "hops",
                String::new(),
            ),
        ];
        for (layer, ns) in self_ns {
            let name = match layer {
                Layer::Dgraph => "self_share.dgraph",
                Layer::Session => "self_share.dmatch.session",
                Layer::Simnet => "self_share.simnet",
                Layer::Oracle => "self_share.dmatch.oracle",
            };
            layers.push(metric(
                name,
                ns as f64 / wall_ns,
                "ratio",
                format!("{} self time", layer.name()),
            ));
        }
        layers.push(metric(
            "trace.coverage",
            covered as f64 / wall_ns,
            "ratio",
            format!("of {wall:.3} s workload wall time"),
        ));
        let (u, t) = (median(&self.untraced_ref), median(&self.traced_ref));
        layers.push(metric(
            "trace.overhead",
            (t - u) / u,
            "ratio",
            format!(
                "traced {t:.6} s vs untraced {u:.6} s (medians of {} and {})",
                self.traced_ref.len(),
                self.untraced_ref.len()
            ),
        ));
        Outcome {
            e2e,
            layers,
            attempted: self.attempted,
            failed: self.failed,
            digest,
            lines,
        }
    }
}

/// A workload of full sessions.
struct SessionSpec {
    family: Family,
    n: usize,
    alg: Algorithm,
    faults: FaultPlan,
    /// Guaranteed approximation `(num, den)`: `|M|·den ≥ OPT·num`.
    bound: Option<(usize, usize)>,
    /// Generated graphs, one session seed each.
    graphs: usize,
    /// Sessions in the deterministic pass (the first instances).
    distinct: usize,
    /// Setups timed (at least one per graph).
    setup_reps: usize,
    /// Blossom runs timed per graph.
    verify_reps: usize,
    /// Oracle queries cross-checked per distinct session seed.
    xcheck: usize,
}

impl SessionSpec {
    fn session(&self, w: &Workload, seed: u64, exec: ExecCfg) -> Session {
        w.session(self.alg, seed)
            .exec(exec)
            .adversary(self.faults)
            .build()
    }
}

fn sessions(spec: &SessionSpec, cfg: &Config) -> Outcome {
    let mut tr = Tracer::new(cfg.trace);
    let mut acc = Acc::default();
    let graphs = spec.graphs;
    let session_seed = |j: usize| mix(cfg.seed, 100 + j as u64);
    let exec = ExecCfg {
        timing: cfg.trace,
        ..ExecCfg::default()
    };
    let faulty = spec.faults.is_active();
    let gen = |j: usize| spec.family.instantiate(spec.n, mix(cfg.seed, 1 + j as u64));
    let build = |j: usize, w: &Workload| drop(spec.session(w, session_seed(j), exec));
    let inputs = Inputs {
        gen: &gen,
        build_layer: Layer::Session,
        build: &build,
    };

    let wall0 = now();
    let from_ns = tr.ns(wall0);
    let ws: Vec<Workload> = (0..graphs)
        .map(|j| acc.setup_once(&mut tr, j, &inputs))
        .collect();
    let opt = acc.verify_all(&mut tr, &ws);
    let mut side = SideRuns::new(graphs, spec.setup_reps, spec.verify_reps, cfg.seconds);

    // Untraced twins of traced operations, for the tracing overhead,
    // and the reference kernel; their time is excluded from the wall
    // time.
    let mut excluded = 0.0;

    // Instance `i` is graph `i % graphs` with its session seed. The first
    // `spec.distinct` instances are the deterministic pass; later ones
    // continue through the input set, then repeat it.
    let mut firsts = vec![None; graphs];
    let loop0 = now();
    let mut i = 0;
    loop {
        let j = i % graphs;
        let (w, best) = (&ws[j], opt[j]);
        let g = &w.graph;
        let seed = session_seed(j);
        let r = reference();
        sample(&mut acc.refs, j, r);
        acc.side_secs += r;
        excluded += r;
        let built = tr.call(Layer::Session, || spec.session(w, seed, exec));
        let run = run_session(&mut tr, built.value);
        sample(&mut acc.ops, j, run.secs);
        if cfg.trace {
            if j == 0 {
                let t = now();
                let mut twin = spec.session(w, seed, ExecCfg::default());
                let t0 = now();
                std::hint::black_box(twin.run_to_completion());
                acc.untraced_ref.push(t0.elapsed().as_secs_f64());
                acc.traced_ref.push(run.secs);
                excluded += t.elapsed().as_secs_f64();
            }
            acc.traced(&run);
        }
        let rep = &run.report;
        let mut problems = Vec::new();
        if let Err(e) = tr.call(Layer::Dgraph, || rep.matching.validate(g)).value {
            problems.push(format!("session {seed}: invalid matching: {e}"));
        }
        let size = rep.matching.size();
        if let Some((num, den)) = spec.bound {
            if size * den < best * num {
                problems.push(format!(
                    "session {seed}: |M| = {size} < {num}/{den} of OPT = {best}"
                ));
            }
        }
        let mut d = Digest::default();
        d.matching(&rep.matching);
        d.stats(&rep.stats);
        let d = d.value();
        match firsts[j] {
            None => firsts[j] = Some(d),
            Some(first) if first != d => {
                problems.push(format!("session {seed}: repeat differs from its first run"));
            }
            Some(_) => {}
        }
        if i < spec.distinct {
            acc.digest.word(d);
            acc.ratios.push(size as f64 / best as f64);
            acc.sims.push(Sim::of(&rep.stats));
            // The oracle answers the fault-free run; under faults that
            // run is also the base of the retained ratio.
            let reference = if faulty {
                let b = tr.call(Layer::Session, || {
                    w.session(spec.alg, seed).exec(exec).build()
                });
                let r = run_session(&mut tr, b.value).report;
                let valid = tr.call(Layer::Dgraph, || r.matching.validate(g)).value;
                let mut ref_problems: Vec<String> = valid.err().into_iter().collect();
                if 2 * r.matching.size() < best {
                    ref_problems.push(format!("fault-free session {seed}: below 1/2 of OPT"));
                }
                acc.op(ref_problems);
                acc.retained
                    .push(size as f64 / r.matching.size().max(1) as f64);
                acc.inflation
                    .push(rep.stats.rounds as f64 / r.stats.rounds.max(1) as f64);
                acc.digest.matching(&r.matching);
                r.matching
            } else {
                rep.matching.clone()
            };
            let mut qd = Digest::default();
            let probes = acc.queries(
                &mut tr,
                g,
                spec.alg,
                seed,
                &reference,
                spec.xcheck,
                stream(cfg.seed, 200 + j as u64),
                &mut qd,
            );
            acc.oracle.absorb(&probes);
            acc.digest.word(qd.value());
        }
        acc.op(problems);
        i += 1;
        let elapsed = wall0.elapsed().as_secs_f64() - excluded;
        acc.side(&mut tr, &mut side, &inputs, &ws, &opt, elapsed);
        if i >= spec.distinct && elapsed >= cfg.seconds && side.finished() {
            break;
        }
    }
    acc.loop_secs = loop0.elapsed().as_secs_f64();
    let wall = wall0.elapsed().as_secs_f64() - excluded;
    let digest = acc.digest.value();
    acc.finish(&tr, wall, from_ns, digest)
}

/// The read-path workload: batches of oracle queries.
struct OracleSpec {
    n: usize,
    /// Queries per batch; each batch asks a fresh oracle.
    batch: usize,
    /// Distinct batches (query seeds).
    distinct: usize,
    /// Generated graphs, one session seed (and global run) each.
    graphs: usize,
    /// Setups timed (at least one per graph).
    setup_reps: usize,
    /// Blossom runs timed per graph.
    verify_reps: usize,
}

fn oracle_geo(spec: &OracleSpec, cfg: &Config) -> Outcome {
    let mut tr = Tracer::new(cfg.trace);
    let mut acc = Acc::default();
    let graphs = spec.graphs;
    let session_seed = |j: usize| mix(cfg.seed, 100 + j as u64);
    let alg = Algorithm::IsraeliItai;
    let batch_stream = |b: usize| stream(cfg.seed, 1000 + b as u64);
    let gen = |j: usize| Family::Geometric.instantiate(spec.n, mix(cfg.seed, 1 + j as u64));
    let build = |j: usize, w: &Workload| {
        drop(
            MatchingOracle::on(&w.graph)
                .algorithm(alg)
                .seed(session_seed(j))
                .build(),
        )
    };
    let inputs = Inputs {
        gen: &gen,
        build_layer: Layer::Oracle,
        build: &build,
    };

    let wall0 = now();
    let from_ns = tr.ns(wall0);
    let ws: Vec<Workload> = (0..graphs)
        .map(|j| acc.setup_once(&mut tr, j, &inputs))
        .collect();
    let opt = acc.verify_all(&mut tr, &ws);
    let mut side = SideRuns::new(graphs, spec.setup_reps, spec.verify_reps, cfg.seconds);

    // The global runs the answers must equal, one per graph.
    let exec = ExecCfg {
        timing: cfg.trace,
        ..ExecCfg::default()
    };
    let mut served = Vec::with_capacity(graphs);
    for (j, w) in ws.iter().enumerate() {
        let (g, seed) = (&w.graph, session_seed(j));
        let built = tr.call(Layer::Session, || w.session(alg, seed).exec(exec).build());
        let global = run_session(&mut tr, built.value);
        if cfg.trace {
            acc.traced(&global);
        }
        let m = global.report.matching;
        let mut problems: Vec<String> = tr
            .call(Layer::Dgraph, || m.validate(g))
            .value
            .err()
            .into_iter()
            .collect();
        if 2 * m.size() < opt[j] {
            problems.push(format!(
                "global run {seed}: |M| = {} below 1/2 of OPT = {}",
                m.size(),
                opt[j]
            ));
        }
        acc.op(problems);
        acc.ratios.push(m.size() as f64 / opt[j] as f64);
        acc.sims.push(Sim::of(&global.report.stats));
        acc.digest.matching(&m);
        acc.digest.stats(&global.report.stats);
        served.push(m);
    }

    // Untraced twins of traced batches, for the tracing overhead, and
    // the reference kernel; their time is excluded from the wall time.
    let mut excluded = 0.0;

    // Batch `k` asks a fresh oracle of graph `k % graphs`.
    let mut firsts = Vec::with_capacity(spec.distinct);
    let loop0 = now();
    let mut b = 0;
    loop {
        let k = b % spec.distinct;
        let j = k % graphs;
        let mut d = Digest::default();
        let r = reference();
        sample(&mut acc.refs, k, r);
        acc.side_secs += r;
        excluded += r;
        let t = now();
        let probes = acc.queries(
            &mut tr,
            &ws[j].graph,
            alg,
            session_seed(j),
            &served[j],
            spec.batch,
            batch_stream(k),
            &mut d,
        );
        let secs = t.elapsed().as_secs_f64();
        sample(&mut acc.ops, k, secs);
        if cfg.trace && k == 0 {
            let g = &ws[j].graph;
            let t0 = now();
            let mut twin = MatchingOracle::on(g)
                .algorithm(alg)
                .seed(session_seed(j))
                .build();
            let mut rng = batch_stream(k);
            for _ in 0..spec.batch {
                std::hint::black_box(twin.query_node(rng.below(g.n() as u64) as NodeId));
            }
            let untraced = t0.elapsed().as_secs_f64();
            acc.untraced_ref.push(untraced);
            acc.traced_ref.push(secs);
            excluded += untraced;
        }
        if b < spec.distinct {
            firsts.push(d.value());
            acc.digest.word(d.value());
            acc.oracle.absorb(&probes);
        } else if d.value() != firsts[k] {
            acc.op(vec![format!(
                "batch {k}: repeat differs from its first run"
            )]);
        }
        b += 1;
        let elapsed = wall0.elapsed().as_secs_f64() - excluded;
        acc.side(&mut tr, &mut side, &inputs, &ws, &opt, elapsed);
        if b >= spec.distinct && elapsed >= cfg.seconds && side.finished() {
            break;
        }
    }
    acc.loop_secs = loop0.elapsed().as_secs_f64();
    let wall = wall0.elapsed().as_secs_f64() - excluded;
    let digest = acc.digest.value();
    acc.finish(&tr, wall, from_ns, digest)
}
