//! The simulator workloads.
//!
//! `sim-scale` runs the exact engine on a large flat overlay where each
//! query's O(N) scans dominate. `sim-routing` runs the same engine on the
//! stressed E18 world with congested links, where per-message work
//! dominates, through `engine::execute_with_threads`.

use crate::{combined_digest, for_seconds, median, secs, Ctx, Report};
use arq::content::{Catalog, QueryKey, WorkloadGen};
use arq::core::engine::{execute_with_threads, make_policy, RunArtifact, RunOutput, RunSpec};
use arq::core::sweep::{expand, SweepPlan};
use arq::gnutella::policy::{ForwardCtx, ForwardingPolicy, ShortcutProposal};
use arq::gnutella::{Network, RunMetrics, SimConfig};
use arq::overlay::{Graph, NodeId};
use arq::simkern::Rng64;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Overlay size of `sim-scale`.
const SCALE_NODES: usize = 50_000;
/// Queries per `sim-scale` run.
const SCALE_QUERIES: usize = 400;
const SCALE_POLICY: &str = "k-walk(k=4)";

/// Calls of `WorkloadGen::holders` and `Graph::live_nodes` timed per
/// world.
const SCAN_SAMPLES: usize = 40;

/// The stressed E18 world with the congested E17 links.
fn routing_plan(seed: u64) -> Result<SweepPlan, String> {
    let text = format!(
        r#"name = "sim-routing"
kind = "live-sim"
seed = {seed}

[base]
nodes = 800
queries = 4_000
ttl = 8
topology = "superpeer(n=16,degree=4)"
catalog.topics = 20
catalog.files = 200
churn.session = 500_000
churn.downtime = 600_000
faults = "faults(loss=0.1)"
retry = "retry(deadline=2000,attempts=3,maxttl=8)"
adapt = "adapt(every=50000,budget=8,degree=2)"
links = "links(up=8,down=32,upbuf=2048,downbuf=8192,loss=0.02,jitter=20,riders=0.2,riderup=2)"

[[axis]]
key = "policy"
values = [
  "flood",
  "assoc(k=4,minconf=0.6)",
  "assoc-adaptive(k=4,minconf=0.6)",
  "hybrid(cap=5,k=4,minconf=0.6)",
  "community(n=16,k=4,minconf=0.6)",
]
"#
    );
    SweepPlan::parse(&text, "sim-routing.toml").map_err(|e| e.to_string())
}

/// Calls to one policy method and the time spent in them.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    calls: u64,
    ns: u64,
}

impl Tally {
    fn add(&mut self, t: Instant) {
        self.calls += 1;
        self.ns += t.elapsed().as_nanos() as u64;
    }

    fn merge(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// A forwarding policy that delegates every method to `inner`, counting
/// and timing the four the engine calls per message or per round. Its
/// `init` hook also times the engine's per-query scans on the run's own
/// world.
struct TimedPolicy<P> {
    inner: P,
    select: Tally,
    on_reply: Tally,
    on_failure: Tally,
    propose: Cell<Tally>,
    holders_us: f64,
    live_nodes_us: f64,
    /// Wall time of the scan sampling, which `Network::new` pays.
    hook_s: f64,
}

impl<P> TimedPolicy<P> {
    fn new(inner: P) -> Self {
        TimedPolicy {
            inner,
            select: Tally::default(),
            on_reply: Tally::default(),
            on_failure: Tally::default(),
            propose: Cell::new(Tally::default()),
            holders_us: 0.0,
            live_nodes_us: 0.0,
            hook_s: 0.0,
        }
    }

    fn policy_ns(&self) -> u64 {
        self.select.ns + self.on_reply.ns + self.on_failure.ns + self.propose.get().ns
    }
}

impl<P: ForwardingPolicy> ForwardingPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, graph: &Graph, workload: &WorkloadGen, catalog: &Catalog) {
        let start = Instant::now();
        // A private stream, so the simulator's own draws are untouched.
        let mut rng = Rng64::seed_from(0x5ca1_ab1e);
        let keys: Vec<QueryKey> = (0..SCAN_SAMPLES)
            .map(|_| {
                let topic = catalog.sample_topic(&mut rng);
                QueryKey {
                    file: catalog.sample_file(topic, &mut rng),
                    topic,
                }
            })
            .collect();
        let t = Instant::now();
        for &key in &keys {
            black_box(workload.holders(key));
        }
        self.holders_us = secs(t) * 1e6 / SCAN_SAMPLES as f64;
        let t = Instant::now();
        for _ in 0..SCAN_SAMPLES {
            black_box(graph.live_nodes().collect::<Vec<NodeId>>());
        }
        self.live_nodes_us = secs(t) * 1e6 / SCAN_SAMPLES as f64;
        self.hook_s = secs(start);
        self.inner.init(graph, workload, catalog);
    }

    fn on_topology_change(&mut self, graph: &Graph) {
        self.inner.on_topology_change(graph);
    }

    fn select(&mut self, ctx: &ForwardCtx<'_>, rng: &mut Rng64) -> Vec<NodeId> {
        let t = Instant::now();
        let out = self.inner.select(ctx, rng);
        self.select.add(t);
        out
    }

    fn select_into(&mut self, ctx: &ForwardCtx<'_>, rng: &mut Rng64, out: &mut Vec<NodeId>) {
        let t = Instant::now();
        self.inner.select_into(ctx, rng, out);
        self.select.add(t);
    }

    fn on_reply(&mut self, node: NodeId, upstream: Option<NodeId>, via: NodeId, key: QueryKey) {
        let t = Instant::now();
        self.inner.on_reply(node, upstream, via, key);
        self.on_reply.add(t);
    }

    fn on_failure(&mut self, node: NodeId, target: NodeId) {
        let t = Instant::now();
        self.inner.on_failure(node, target);
        self.on_failure.add(t);
    }

    fn stats(&self) -> Vec<(String, f64)> {
        self.inner.stats()
    }

    fn propose_shortcuts(&self, graph: &Graph) -> Vec<ShortcutProposal> {
        let t = Instant::now();
        let out = self.inner.propose_shortcuts(graph);
        let mut tally = self.propose.get();
        tally.add(t);
        self.propose.set(tally);
        out
    }

    fn shortcut_active(&self, asker: NodeId, target: NodeId, via: NodeId) -> bool {
        self.inner.shortcut_active(asker, target, via)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// One traced simulation.
struct TracedRun {
    metrics: RunMetrics,
    stats: Vec<(String, f64)>,
    label: String,
    setup_s: f64,
    wall: f64,
    policy_ns: u64,
    tallies: [Tally; 4],
    holders_us: f64,
    live_nodes_us: f64,
}

/// Builds and runs one world the way `engine::run_live` does, with the
/// policy wrapped in [`TimedPolicy`].
fn run_traced(
    mut cfg: SimConfig,
    policy: &str,
    graph: Option<&Graph>,
) -> Result<TracedRun, String> {
    let built = make_policy(policy).map_err(|e| e.to_string())?;
    built.apply_to(&mut cfg);
    let t = Instant::now();
    let timed = TimedPolicy::new(built.policy);
    let network = match graph {
        Some(g) => Network::with_graph(cfg, timed, g.clone()),
        None => Network::new(cfg, timed),
    };
    let setup = secs(t);
    let t = Instant::now();
    let (result, timed, _) = network.run_full();
    let wall = secs(t);
    let mut metrics = result.metrics;
    metrics.policy = built.label.clone();
    Ok(TracedRun {
        stats: timed.stats(),
        metrics,
        label: built.label,
        setup_s: setup - timed.hook_s,
        wall,
        policy_ns: timed.policy_ns(),
        tallies: [
            timed.select,
            timed.on_reply,
            timed.on_failure,
            timed.propose.get(),
        ],
        holders_us: timed.holders_us,
        live_nodes_us: timed.live_nodes_us,
    })
}

fn messages(m: &RunMetrics) -> u64 {
    m.query_messages + m.hit_messages
}

/// Deterministic aggregates over a set of runs, printed as guards and
/// traced-run layer metrics.
fn guards(report: &mut Report, runs: &[&RunMetrics]) {
    let sum = |f: fn(&RunMetrics) -> u64| runs.iter().map(|m| f(m)).sum::<u64>() as f64;
    let success = sum(|m| m.answered) / sum(|m| m.answerable);
    let per_query = sum(messages) / sum(|m| m.queries);
    report.guard("query_success_rate", success);
    report.guard("messages_per_query", per_query);
    report.layer("gnutella.query_success_rate", success);
    report.layer("gnutella.messages_per_query", per_query);
    report.layer(
        "gnutella.answered_per_attempt",
        sum(|m| m.answered) / (sum(|m| m.queries) + sum(|m| m.retried)),
    );
    report.layer("gnutella.lost_messages", sum(|m| m.lost_messages));
    report.layer("gnutella.buffer_dropped", sum(|m| m.buffer_dropped));
}

/// Layer metrics of a set of traced runs.
fn traced_layers(report: &mut Report, runs: &[TracedRun]) {
    let mut by_label: BTreeMap<&str, [Tally; 4]> = BTreeMap::new();
    for run in runs {
        let entry = by_label.entry(run.label.as_str()).or_default();
        for (acc, t) in entry.iter_mut().zip(run.tallies) {
            acc.merge(t);
        }
    }
    for (label, tallies) in by_label {
        for (method, t) in ["select", "on_reply", "on_failure", "propose"]
            .iter()
            .zip(tallies)
        {
            report.layer(
                &format!("gnutella.policy.{label}.{method}_calls"),
                t.calls as f64,
            );
            report.layer(
                &format!("gnutella.policy.{label}.{method}_ns"),
                t.ns_per_call(),
            );
        }
    }
    let wall: f64 = runs.iter().map(|r| r.wall).sum();
    let self_s: f64 = runs
        .iter()
        .map(|r| r.wall - r.policy_ns as f64 * 1e-9)
        .sum();
    let metrics: Vec<&RunMetrics> = runs.iter().map(|r| &r.metrics).collect();
    let queries: u64 = metrics.iter().map(|m| m.queries).sum();
    let msgs: u64 = metrics.iter().map(|m| messages(m)).sum();
    report.layer("gnutella.setup_s", runs.iter().map(|r| r.setup_s).sum());
    report.layer(
        "gnutella.engine_self_us_per_query",
        self_s * 1e6 / queries as f64,
    );
    report.layer(
        "gnutella.engine_self_ns_per_message",
        self_s * 1e9 / msgs as f64,
    );
    // The exact engine calls each scan once per issued query.
    let holders: f64 = runs
        .iter()
        .map(|r| r.holders_us * r.metrics.queries as f64)
        .sum();
    let live: f64 = runs
        .iter()
        .map(|r| r.live_nodes_us * r.metrics.queries as f64)
        .sum();
    let n = runs.len() as f64;
    report.layer(
        "content.holders_us_per_call",
        runs.iter().map(|r| r.holders_us).sum::<f64>() / n,
    );
    report.layer(
        "overlay.live_nodes_us_per_call",
        runs.iter().map(|r| r.live_nodes_us).sum::<f64>() / n,
    );
    report.layer("content.holders_share_of_wall", holders * 1e-6 / wall);
    report.layer("overlay.live_nodes_share_of_wall", live * 1e-6 / wall);
    guards(report, &metrics);
}

fn same_run(
    a: &RunMetrics,
    a_stats: &[(String, f64)],
    b: &RunMetrics,
    b_stats: &[(String, f64)],
) -> bool {
    a.digest() == b.digest() && a_stats == b_stats
}

// ---------------------------------------------------------------------------
// sim-scale
// ---------------------------------------------------------------------------

fn scale_config(seed: u64) -> SimConfig {
    SimConfig::default_with(SCALE_NODES, SCALE_QUERIES, seed)
}

/// One untraced exact-engine run.
struct ExactRun {
    setup: f64,
    wall: f64,
    metrics: RunMetrics,
    stats: Vec<(String, f64)>,
}

fn scale_once(seed: u64) -> Result<ExactRun, String> {
    let mut cfg = scale_config(seed);
    let built = make_policy(SCALE_POLICY).map_err(|e| e.to_string())?;
    built.apply_to(&mut cfg);
    let t = Instant::now();
    let network = Network::new(cfg, built.policy);
    let setup = secs(t);
    let t = Instant::now();
    let (result, policy, _) = network.run_full();
    let wall = secs(t);
    let mut metrics = result.metrics;
    metrics.policy = built.label;
    Ok(ExactRun {
        setup,
        wall,
        metrics,
        stats: policy.stats(),
    })
}

/// One windowed-engine run: seconds and metrics.
fn windowed_once(seed: u64, threads: usize) -> Result<(f64, RunMetrics), String> {
    let mut cfg = scale_config(seed);
    let built = make_policy(SCALE_POLICY).map_err(|e| e.to_string())?;
    built.apply_to(&mut cfg);
    let network = Network::new(cfg, built.policy);
    let t = Instant::now();
    let result = network.run_sharded(threads);
    Ok((secs(t), result.metrics))
}

pub fn run_scale(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    report.threads = 1;
    if ctx.trace {
        return run_scale_traced(ctx, report);
    }
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<RunMetrics> = None;
    for_seconds(ctx.seconds, || {
        report.attempt(1);
        let run = scale_once(ctx.seed)?;
        setup.push(run.setup);
        walls.push(run.wall);
        match &first {
            Some(f) => report.check(
                f.digest() == run.metrics.digest(),
                "sim-scale: exact-engine result differs between iterations",
            ),
            None => first = Some(run.metrics),
        }
        Ok(())
    })?;
    let metrics = first.expect("the loop runs at least once");
    let rates: Vec<f64> = walls.iter().map(|w| metrics.queries as f64 / w).collect();
    report.e2e("setup_s", median(&setup));
    report.e2e("work_per_s", median(&rates));
    report.e2e("latency_p50_ms", median(&walls) * 1e3);
    guards(report, &[&metrics]);
    Ok(())
}

fn run_scale_traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    report.attempt(2);
    let untraced = scale_once(ctx.seed)?;
    let traced = run_traced(scale_config(ctx.seed), SCALE_POLICY, None)?;
    report.check(
        same_run(
            &traced.metrics,
            &traced.stats,
            &untraced.metrics,
            &untraced.stats,
        ),
        "sim-scale: traced run differs from its untraced run",
    );
    report.layer(
        "bench.tracing_overhead_pct",
        (traced.wall - untraced.wall) / untraced.wall * 1e2,
    );

    report.attempt(2);
    let (windowed_1, serial) = windowed_once(ctx.seed, 1)?;
    let (windowed_n, parallel) = windowed_once(ctx.seed, ctx.nproc)?;
    report.threads = ctx.nproc;
    report.check(
        serial.digest() == parallel.digest(),
        "sim-scale: windowed engine differs between 1 and nproc workers",
    );
    report.layer("gnutella.windowed_s.t1", windowed_1);
    report.layer("gnutella.windowed_s.tN", windowed_n);
    report.layer(
        "gnutella.windowed_delta_success_rate",
        (serial.success_rate - untraced.metrics.success_rate).abs(),
    );
    report.layer(
        "gnutella.windowed_delta_messages_per_query",
        (serial.messages_per_query - untraced.metrics.messages_per_query).abs(),
    );
    traced_layers(report, &[traced]);
    Ok(())
}

// ---------------------------------------------------------------------------
// sim-routing
// ---------------------------------------------------------------------------

/// Expands the plan and builds every job's world once, the set-up the
/// executor repeats inside each job.
fn routing_setup(plan: &SweepPlan) -> Result<(Vec<RunSpec>, f64), String> {
    let t = Instant::now();
    let specs: Vec<RunSpec> = expand(plan)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|j| j.spec)
        .collect();
    for spec in &specs {
        let RunSpec::LiveSim {
            cfg, policy, graph, ..
        } = spec
        else {
            return Err("sim-routing expansion holds a non-sim job".to_string());
        };
        let mut cfg = cfg.clone();
        let built = make_policy(policy).map_err(|e| e.to_string())?;
        built.apply_to(&mut cfg);
        black_box(match graph {
            Some(g) => Network::with_graph(cfg, built.policy, (**g).clone()),
            None => Network::new(cfg, built.policy),
        });
    }
    Ok((specs, secs(t)))
}

fn execute(specs: &[RunSpec], threads: usize) -> Result<(Vec<RunArtifact>, f64), String> {
    let t = Instant::now();
    let artifacts = execute_with_threads(specs, threads).map_err(|e| e.to_string())?;
    Ok((artifacts, secs(t)))
}

fn artifact_metrics(artifacts: &[RunArtifact]) -> Result<Vec<&RunMetrics>, String> {
    artifacts
        .iter()
        .map(|a| {
            a.metrics()
                .ok_or_else(|| "sim-routing artifact without metrics".to_string())
        })
        .collect()
}

pub fn run_routing(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let plan = routing_plan(ctx.seed)?;
    if ctx.trace {
        return run_routing_traced(ctx, &plan, report);
    }
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<(u64, Vec<RunArtifact>)> = None;
    let mut specs = Vec::new();
    for_seconds(ctx.seconds, || {
        let (s, t) = routing_setup(&plan)?;
        setup.push(t);
        report.attempt(s.len() as u64);
        let (artifacts, wall) = execute(&s, ctx.nproc)?;
        walls.push(wall);
        let digest = combined_digest(&artifacts);
        match &first {
            Some((d, _)) => report.check(
                *d == digest,
                "sim-routing: artifacts differ between iterations",
            ),
            None => first = Some((digest, artifacts)),
        }
        specs = s;
        Ok(())
    })?;
    report.threads = ctx.nproc.min(specs.len());
    let (digest, artifacts) = first.expect("the loop runs at least once");
    report.attempt(specs.len() as u64);
    let (serial, _) = execute(&specs, 1)?;
    report.check(
        combined_digest(&serial) == digest,
        "sim-routing: artifacts at 1 worker differ from artifacts at nproc workers",
    );
    let metrics = artifact_metrics(&artifacts)?;
    let msgs = metrics.iter().map(|m| messages(m)).sum::<u64>() as f64;
    let rates: Vec<f64> = walls.iter().map(|w| msgs / w).collect();
    report.e2e("setup_s", median(&setup));
    report.e2e("work_per_s", median(&rates));
    report.e2e("latency_p50_ms", median(&walls) * 1e3);
    guards(report, &metrics);
    Ok(())
}

/// Runs every job traced, on up to `threads` workers pulling jobs in
/// order, like the executor.
fn traced_all(specs: &[RunSpec], threads: usize) -> Result<(Vec<TracedRun>, f64), String> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<TracedRun, String>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, specs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let run = match spec {
                    RunSpec::LiveSim {
                        cfg, policy, graph, ..
                    } => run_traced(cfg.clone(), policy, graph.as_deref()),
                    RunSpec::TraceEval { .. } => Err("sim-routing holds a trace job".to_string()),
                };
                *slots[i].lock().expect("slot lock poisoned") = Some(run);
            });
        }
    });
    let wall = secs(t);
    let runs = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock poisoned")
                .unwrap_or_else(|| Err("traced job did not run".to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((runs, wall))
}

fn run_routing_traced(ctx: &Ctx, plan: &SweepPlan, report: &mut Report) -> Result<(), String> {
    let (specs, _) = routing_setup(plan)?;
    let threads = ctx.nproc.min(specs.len());
    report.threads = threads;
    report.attempt(3 * specs.len() as u64);
    let (artifacts, wall_n) = execute(&specs, ctx.nproc)?;
    let (serial, wall_1) = execute(&specs, 1)?;
    report.check(
        combined_digest(&serial) == combined_digest(&artifacts),
        "sim-routing: artifacts at 1 worker differ from artifacts at nproc workers",
    );
    report.layer(
        "core.engine.parallel_efficiency",
        wall_1 / (threads as f64 * wall_n),
    );
    let (runs, traced_wall) = traced_all(&specs, ctx.nproc)?;
    for (run, artifact) in runs.iter().zip(&artifacts) {
        let untraced = artifact.metrics().expect("live artifact has metrics");
        let stats = match &artifact.output {
            RunOutput::Live { stats, .. } => stats.as_slice(),
            RunOutput::Trace(_) => &[],
        };
        let traced = &run.metrics;
        report.check(
            same_run(traced, &run.stats, untraced, stats),
            &format!(
                "sim-routing: traced {} differs from its untraced run",
                run.label
            ),
        );
    }
    report.layer(
        "bench.tracing_overhead_pct",
        (traced_wall - wall_n) / wall_n * 1e2,
    );
    traced_layers(report, &runs);
    Ok(())
}
