//! Cross-commit golden for the exact live engine (`Network::run_full`).
//!
//! One small world turns on every issue-path feature at once: churn with
//! ping-crawl rejoin (`rejoin_via_ping`), permanent crashes, lossy and
//! silent nodes, deadline/retry, and replication on first hit
//! (`download_on_hit`). The run's `RunMetrics::digest()` and the
//! policy's `stats()` are pinned to checked-in values, so a change that
//! moves one RNG draw on the issuer, answerability, bootstrap or
//! download path fails here even when every other test still passes.
//!
//! If an intentional behaviour change moves the values, update the
//! constants with the ones the failure message prints — after checking
//! that the change was meant to alter simulated behaviour.

use arq_core::engine::{make_fault_plan, make_retry_policy, run_live};
use arq_gnutella::sim::SimConfig;
use arq_overlay::ChurnConfig;
use arq_simkern::time::Duration;

/// `RunMetrics::digest()` of the golden run.
const EXACT_GOLDEN_DIGEST: u64 = 0xf3f4_10d5_dbc7_0a9c;

/// `stats()` of the golden run's policy, rendered as `name=value` lines.
const EXACT_GOLDEN_STATS: &str = "\
rule_forwards=472\n\
flood_fallbacks=9084\n\
rule_usage=0.0493930514859774\n\
dead_demotions=921\n\
failure_remines=3\n";

fn golden_cfg() -> SimConfig {
    let mut cfg = SimConfig::default_with(160, 500, 2_006);
    cfg.catalog.topics = 8;
    cfg.catalog.files_per_topic = 60;
    cfg.churn = Some(ChurnConfig {
        mean_session: Duration::from_ticks(120_000),
        mean_downtime: Duration::from_ticks(60_000),
        pinned: Vec::new(),
    });
    cfg.rejoin_via_ping = Some(3);
    cfg.download_on_hit = true;
    cfg.faults =
        Some(make_fault_plan("faults(loss=0.05,jitter=30,crash=0.03,silent=0.05)").unwrap());
    cfg.retry = Some(make_retry_policy("retry(attempts=3,maxttl=8)").unwrap());
    cfg
}

fn render_stats(stats: &[(String, f64)]) -> String {
    stats.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

#[test]
fn exact_engine_run_matches_golden() {
    let (metrics, stats, _, graph) = run_live(golden_cfg(), "assoc-adaptive", None).unwrap();
    // Guard against a world too quiet to pin anything: the run must
    // really churn, retry, and answer queries.
    assert!(
        graph.live_count() < graph.len(),
        "no node was down at the end"
    );
    assert!(metrics.retried > 0, "no query was retried");
    assert!(metrics.answered > 0, "no query was answered");
    let rendered = render_stats(&stats);
    assert_eq!(
        (metrics.digest(), rendered.as_str()),
        (EXACT_GOLDEN_DIGEST, EXACT_GOLDEN_STATS),
        "exact-engine golden moved: digest {:#018x}, stats:\n{rendered}",
        metrics.digest(),
    );
}
