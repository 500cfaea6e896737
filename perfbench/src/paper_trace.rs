//! `paper-trace`: the paper's own experiment, one shared paper-default
//! trace at the E1–E6 scale evaluated by the five maintenance
//! strategies, through `sweep::run_sweep` as `arq sweep run` does.

use crate::{combined_digest, for_seconds, mean, median, secs, Ctx, Report};
use arq::assoc::PairMiner;
use arq::core::engine::{execute_with_threads, make_strategy, RunSpec};
use arq::core::sweep::{expand, run_sweep, SweepJob, SweepPlan};
use arq::simkern::json::Json;
use arq::simkern::rng::fnv1a;
use arq::simkern::TimeSeries;
use arq::trace::record::PairRecord;
use arq::trace::Blocks;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Pairs in the shared trace: the scale of plans E1–E6.
const PAIRS: usize = 3_660_000;
/// Pairs per evaluation block.
const BLOCK: usize = 10_000;
/// Minimum support the strategies mine at (`s=10`).
const MIN_SUPPORT: u64 = 10;
const STRATEGIES: [&str; 5] = [
    "static(s=10)",
    "sliding(s=10)",
    "lazy(s=10,p=10)",
    "adaptive(s=10,h=10,i=0.7)",
    "incremental(t=10,hl=20000)",
];

fn plan(seed: u64) -> Result<SweepPlan, String> {
    let values: Vec<String> = STRATEGIES.iter().map(|s| format!("\"{s}\"")).collect();
    let text = format!(
        "name = \"paper-trace\"\nkind = \"trace-eval\"\nseed = {seed}\n\n\
         [base]\ntrace = \"shared-paper-default\"\npairs = {PAIRS}\nblock = {BLOCK}\n\n\
         [[axis]]\nkey = \"strategy\"\nvalues = [{}]\n",
        values.join(", ")
    );
    SweepPlan::parse(&text, "paper-trace.toml").map_err(|e| e.to_string())
}

/// One strategy's row of a sweep report.
#[derive(Debug, PartialEq)]
struct Row {
    alpha: f64,
    rho: f64,
    regenerations: f64,
    trials: f64,
}

/// One `run_sweep` call.
struct Sweep {
    digest: u64,
    rows: Vec<Row>,
    wall: f64,
}

fn sweep(plan: &SweepPlan, jobs: &[SweepJob], dir: &Path, threads: usize) -> Result<Sweep, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let out = run_sweep(plan, jobs, dir, false, 0, threads).map_err(|e| e.to_string())?;
    let wall = secs(t);
    let num = |row: &Json, key: &str| -> Result<f64, String> {
        row.get("metrics")
            .and_then(|m| m.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("sweep report row without metrics.{key}"))
    };
    let rows = out
        .report
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("sweep report without rows")?
        .iter()
        .map(|row| {
            Ok(Row {
                alpha: num(row, "avg_coverage")?,
                rho: num(row, "avg_success")?,
                regenerations: num(row, "regenerations")?,
                trials: num(row, "trials")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Sweep {
        digest: fnv1a(out.report.to_string().as_bytes()),
        rows,
        wall,
    })
}

fn specs(jobs: &[SweepJob]) -> Vec<RunSpec> {
    jobs.iter().map(|j| j.spec.clone()).collect()
}

/// Runs the jobs on the executor; returns the artifacts' combined
/// content digest and the wall time.
fn execute(specs: &[RunSpec], threads: usize) -> Result<(u64, f64), String> {
    let t = Instant::now();
    let artifacts = execute_with_threads(specs, threads).map_err(|e| e.to_string())?;
    Ok((combined_digest(&artifacts), secs(t)))
}

/// The shared trace every job of the expansion evaluates.
fn shared_trace(jobs: &[SweepJob]) -> Result<Arc<Vec<PairRecord>>, String> {
    match jobs.first().map(|j| &j.spec) {
        Some(RunSpec::TraceEval { trace, .. }) => Ok(trace.materialize()),
        _ => Err("paper-trace expansion has no trace job".to_string()),
    }
}

/// Family name of a strategy spec, for metric names.
fn family(spec: &str) -> &str {
    spec.split('(').next().unwrap_or(spec)
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let plan = plan(ctx.seed)?;
    let dir = ctx.tmp.join("sweep");
    let threads = ctx.nproc.min(STRATEGIES.len());
    report.threads = threads;
    if ctx.trace {
        return run_traced(ctx, &plan, &dir, report);
    }
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<Sweep> = None;
    let mut last_jobs: Option<Vec<SweepJob>> = None;
    for_seconds(ctx.seconds, || {
        // Free the previous trace before synthesizing the next one.
        last_jobs = None;
        let t = Instant::now();
        let jobs = expand(&plan).map_err(|e| e.to_string())?;
        setup.push(secs(t));
        report.attempt(jobs.len() as u64);
        let run = sweep(&plan, &jobs, &dir, ctx.nproc)?;
        walls.push(run.wall);
        match &first {
            Some(f) => report.check(
                f.digest == run.digest,
                "paper-trace: sweep report differs between iterations",
            ),
            None => first = Some(run),
        }
        last_jobs = Some(jobs);
        Ok(())
    })?;
    let jobs = last_jobs.expect("the loop runs at least once");
    let first = first.expect("the loop runs at least once");
    report.attempt(jobs.len() as u64);
    let serial = sweep(&plan, &jobs, &dir, 1)?;
    report.check(
        serial.digest == first.digest,
        "paper-trace: sweep report at 1 worker differs from the report at nproc workers",
    );

    let work = (PAIRS * jobs.len()) as f64;
    let rates: Vec<f64> = walls.iter().map(|w| work / w).collect();
    report.e2e("setup_s", median(&setup));
    report.e2e("work_per_s", median(&rates));
    report.e2e("latency_p50_ms", median(&walls) * 1e3);
    guards(report, &first.rows);
    Ok(())
}

fn guards(report: &mut Report, rows: &[Row]) {
    let alphas: Vec<f64> = rows.iter().map(|r| r.alpha).collect();
    let rhos: Vec<f64> = rows.iter().map(|r| r.rho).collect();
    report.guard("alpha_mean", mean(&alphas));
    report.guard("rho_mean", mean(&rhos));
    report.layer("core.eval.alpha_mean", mean(&alphas));
    report.layer("core.eval.rho_mean", mean(&rhos));
}

/// Per-block timing of one strategy, replayed the way
/// `eval::evaluate` replays it.
struct Traced {
    row: Row,
    test_s: f64,
    test_pairs: usize,
    regen_s: f64,
    regen_blocks: usize,
    wall: f64,
}

fn evaluate_traced(spec: &str, pairs: &[PairRecord]) -> Result<Traced, String> {
    let mut strategy = make_strategy(spec).map_err(|e| e.to_string())?;
    let blocks = Blocks::new(pairs, BLOCK);
    let start = Instant::now();
    strategy.warm_up(blocks.get(0));
    let mut coverage = TimeSeries::new("coverage");
    let mut success = TimeSeries::new("success");
    let (mut test_s, mut test_pairs, mut regen_s, mut regen_blocks) = (0.0, 0, 0.0, 0);
    for i in 1..blocks.len() {
        let block = blocks.get(i);
        let t = Instant::now();
        let trial = strategy.test_and_update(block);
        let dt = secs(t);
        if trial.regenerated {
            regen_s += dt;
            regen_blocks += 1;
        } else {
            test_s += dt;
            test_pairs += block.len();
        }
        coverage.push(i as f64, trial.measures.coverage());
        success.push(i as f64, trial.measures.success());
    }
    Ok(Traced {
        row: Row {
            alpha: coverage.mean(),
            rho: success.mean(),
            regenerations: regen_blocks as f64,
            trials: (blocks.len() - 1) as f64,
        },
        test_s,
        test_pairs,
        regen_s,
        regen_blocks,
        wall: secs(start),
    })
}

fn run_traced(ctx: &Ctx, plan: &SweepPlan, dir: &Path, report: &mut Report) -> Result<(), String> {
    let t = Instant::now();
    let jobs = expand(plan).map_err(|e| e.to_string())?;
    report.layer("trace.synth_s", secs(t));
    let specs = specs(&jobs);
    report.attempt(3 * jobs.len() as u64);
    let untraced = sweep(plan, &jobs, dir, ctx.nproc)?;
    let (digest_1, wall_1) = execute(&specs, 1)?;
    let (digest_n, wall_n) = execute(&specs, ctx.nproc)?;
    report.check(
        digest_1 == digest_n,
        "paper-trace: artifacts at 1 worker differ from artifacts at nproc workers",
    );
    report.layer(
        "core.engine.parallel_efficiency",
        wall_1 / (report.threads as f64 * wall_n),
    );
    report.layer("core.sweep.overhead_s", untraced.wall - wall_n);

    let pairs = shared_trace(&jobs)?;
    let mut traced_wall = 0.0;
    report.attempt(STRATEGIES.len() as u64);
    for (spec, untraced_row) in STRATEGIES.iter().zip(&untraced.rows) {
        let traced = evaluate_traced(spec, &pairs)?;
        report.check(
            traced.row == *untraced_row,
            &format!("paper-trace: traced {spec} differs from its untraced sweep row"),
        );
        traced_wall += traced.wall;
        let name = |metric: &str| format!("core.eval.{}.{metric}", family(spec));
        let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
        report.layer(
            &name("test_ns_per_pair"),
            per(traced.test_s * 1e9, traced.test_pairs),
        );
        report.layer(
            &name("regen_us_per_block"),
            per(traced.regen_s * 1e6, traced.regen_blocks),
        );
        report.layer(&name("regenerations"), traced.regen_blocks as f64);
        report.layer("core.eval.trials", traced.row.trials);
    }
    // The serial executor run evaluates the same jobs untimed.
    report.layer(
        "bench.tracing_overhead_pct",
        (traced_wall - wall_1) / wall_1 * 1e2,
    );

    let mut single = PairMiner::sharded(1);
    let mut sharded = PairMiner::sharded(ctx.nproc);
    let (mut single_s, mut sharded_s) = (0.0, 0.0);
    let blocks = Blocks::new(&pairs, BLOCK);
    report.attempt(blocks.len() as u64);
    for i in 0..blocks.len() {
        let block = blocks.get(i);
        let t = Instant::now();
        let a = single.mine(block, MIN_SUPPORT);
        single_s += secs(t);
        let t = Instant::now();
        let b = sharded.mine(block, MIN_SUPPORT);
        sharded_s += secs(t);
        report.check(
            a.digest() == b.digest(),
            "paper-trace: sharded mining differs from single-shard mining",
        );
    }
    let mined = (blocks.len() * BLOCK) as f64;
    report.layer("assoc.mine_ns_per_pair", single_s * 1e9 / mined);
    report.layer("assoc.mine_sharded_ns_per_pair", sharded_s * 1e9 / mined);
    guards(report, &untraced.rows);
    Ok(())
}
