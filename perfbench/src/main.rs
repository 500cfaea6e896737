//! The arq benchmark: end-to-end metrics per workload, and per-layer
//! timings taken from outside the layers, around calls into their public
//! API.
//!
//! Run from the root of a checkout (it reads `BENCHMARK.json` there):
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-trace --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the
//! workload once untraced and once traced and prints every per-layer
//! metric, including the tracing overhead. The last stdout line is the
//! result object; the line before it is the host block. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod paper_trace;
mod serve_stream;
mod sim;

use arq::core::engine::RunArtifact;
use arq::core::sweep::artifact_content_digest;
use arq::simkern::json::{self, Json};
use arq::simkern::rng::fnv1a;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// What one invocation measures.
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall time the measuring loop runs for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Worker threads the host offers; no workload uses more workers.
    pub nproc: usize,
    /// Scratch directory inside the checkout, removed at exit.
    pub tmp: PathBuf,
}

/// Everything a workload reports back.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (jobs, frames, route lookups).
    pub attempted: u64,
    /// Operations that failed or whose outputs failed a check.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metrics by name; layers a workload never calls stay 0.
    pub layers: BTreeMap<String, f64>,
    /// Deterministic outputs, printed with the host block.
    pub guards: BTreeMap<String, f64>,
    /// Threads the workload really ran at once.
    pub threads: usize,
}

impl Report {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_string(), value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Sets a deterministic guard value.
    pub fn guard(&mut self, name: &str, value: f64) {
        self.guards.insert(name.to_string(), value);
    }
}

/// Runs `body` repeatedly until `seconds` have passed, at least once.
pub fn for_seconds(
    seconds: f64,
    mut body: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        body()?;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The `q`-quantile of `xs` (linear interpolation between ranks).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Mean of `xs`, 0 for none.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One digest over the content digests of a batch's artifacts, in
/// order: equal exactly when every artifact is byte-identical.
pub fn combined_digest(artifacts: &[RunArtifact]) -> u64 {
    let digests: Vec<String> = artifacts
        .iter()
        .map(|a| format!("{:016x}", artifact_content_digest(a)))
        .collect();
    fnv1a(digests.join(",").as_bytes())
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    if let Some(k) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// Metric names and units declared in `BENCHMARK.json`.
struct Declared {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn read_declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the checkout root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
    };
    let field = |entry: &Json, key: &str| -> Result<String, String> {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json entry without `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
        list(key)?
            .iter()
            .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
            .collect()
    };
    Ok(Declared {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout, when it is a git repository.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn number_map(m: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        m.iter()
            .map(|(k, &v)| (k.clone(), Json::Float(v)))
            .collect(),
    )
}

fn run(args: &Args) -> Result<(), String> {
    let declared = read_declared()?;
    if !declared.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload `{}` (declared: {})",
            args.workload,
            declared.workloads.join(", ")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tmp = std::env::current_dir()
        .map_err(|e| format!("current dir: {e}"))?
        .join(".perfbench-tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        tmp: tmp.clone(),
    };
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "paper-trace" => paper_trace::run(&ctx, &mut report),
        "sim-scale" => sim::run_scale(&ctx, &mut report),
        "sim-routing" => sim::run_routing(&ctx, &mut report),
        "serve-stream" => serve_stream::run(&ctx, &mut report),
        other => Err(format!(
            "workload `{other}` is declared but not implemented"
        )),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    // Succeeds only once no other run is using the scratch root.
    let _ = tmp.parent().map(std::fs::remove_dir);
    outcome?;
    report.e2e("peak_rss_mb", peak_rss_mb()?);

    let metrics = if args.trace {
        if let Some(extra) = report
            .layers
            .keys()
            .find(|k| !declared.per_layer.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("per-layer metric `{extra}` is not declared"));
        }
        declared
            .per_layer
            .iter()
            .map(|(name, unit)| (name, unit, report.layers.get(name).copied().unwrap_or(0.0)))
            .collect::<Vec<_>>()
    } else {
        declared
            .end_to_end
            .iter()
            .map(|(name, unit)| {
                report
                    .e2e
                    .get(name)
                    .map(|&v| (name, unit, v))
                    .ok_or_else(|| format!("end-to-end metric `{name}` was not measured"))
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    if let Some((name, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric `{name}` is not finite ({v})"));
    }

    let host = Json::obj([
        (
            "host",
            Json::obj([
                ("nproc", Json::from(nproc)),
                ("cpu", Json::from(cpu_model())),
                ("rustc", Json::from(env!("PERFBENCH_RUSTC"))),
                ("commit", Json::from(git_commit())),
            ]),
        ),
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("threads", Json::from(report.threads)),
        ("oversubscribed", Json::Bool(report.threads > nproc)),
        ("guards", number_map(&report.guards)),
    ]);
    println!("{host}");
    let result = Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, unit, v)| {
                        (
                            name.clone(),
                            Json::obj([
                                ("value", Json::Float(v)),
                                ("unit", Json::from(unit.as_str())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    Ok(())
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
