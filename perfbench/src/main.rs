//! `perfbench` — runs one benchmark workload against a two-site
//! homeostasis cluster over loopback TCP and prints every metric by name
//! with its unit, the verdict of the output checks, and, as the last line,
//! one JSON result object.
//!
//! ```text
//! perfbench --workload fastpath|tpcc-mix|general-lpp --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from an untraced run;
//! `--trace 1` reports the per-layer metrics from a traced run. See
//! `perfbench/README.md`.

mod layers;
mod ledger;
mod load;
mod workload;

use std::time::Instant;

use homeo_cluster::ClientApi;

use load::{closed_loop, median, trimmed_mean, window_percentiles};
use workload::{check, Check, OpGen, Stream, Tally, Workload};

/// Rounds per untraced run. Each round starts a fresh cluster, so the
/// write-ahead log, which only grows, is bounded by one round's work.
const ROUNDS: usize = 5;
/// Cluster set-ups per round: all but the last are shut down at once.
/// `setup_s` is the median over every set-up of the run.
const SETUPS_PER_ROUND: usize = 3;
/// Closed-loop windows per round; throughput is the median over windows.
const WINDOWS_PER_ROUND: usize = 4;
/// Share of each round spent warming up the fresh cluster: it fills the
/// negotiation memo, which a long-running site filled long ago.
const WARMUP_SHARE: f64 = 0.15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One named measurement.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a run reports.
pub struct Report {
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, plus one per failed check.
    pub failed: u64,
    /// Extra `key value` lines for the human reader.
    pub notes: Vec<String>,
}

impl Report {
    fn from_tally(metrics: Vec<Metric>, checks: Vec<Check>, tally: &Tally) -> Report {
        let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
        Report {
            metrics,
            checks,
            attempted: tally.attempted,
            failed: tally.failed + failed_checks,
            notes: Vec::new(),
        }
    }

    /// Failed operations and checks over operations attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Process peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The closed-loop latency percentiles, or an error when the sample
/// cannot support a p99. A window's median sits in one of two modes (on
/// `fastpath` about a third apart) that the host switches between every
/// few windows, so a median over windows jumps from one mode to the other;
/// their trimmed mean moves with the share of time spent in each. The p99
/// is a median over windows, which a stall moves less.
fn closed_loop_latency(latency_ms: &[f64]) -> Result<(f64, f64), String> {
    match (
        window_percentiles(latency_ms, 0.5).map(|w| trimmed_mean(&w)),
        window_percentiles(latency_ms, 0.99).map(|w| median(&w)),
    ) {
        (Some(p50), Some(p99)) => Ok((p50, p99)),
        _ => Err(format!(
            "{} closed-loop samples leave fewer than ten beyond p99; run longer",
            latency_ms.len()
        )),
    }
}

/// How a run divides its seconds: per round a closed-loop warm-up, then
/// closed-loop windows. Each submits a fixed number of batches (its time
/// share at the workload's nominal capacity), so every run does the same
/// work and its memory peak does not depend on its speed.
pub struct Plan {
    /// Warm-up batches on each fresh cluster.
    pub warmup: u64,
    /// Batches in one closed-loop window.
    pub closed: u64,
}

impl Plan {
    /// The plan for `secs` measured seconds of `w`.
    pub fn new(w: &Workload, secs: f64) -> Plan {
        let round = secs / ROUNDS as f64;
        let window = round * (1.0 - WARMUP_SHARE) / WINDOWS_PER_ROUND as f64;
        let batches = |secs: f64| (w.closed_rate * secs / w.batch as f64).ceil() as u64;
        Plan {
            warmup: batches(round * WARMUP_SHARE),
            closed: batches(window),
        }
    }
}

/// The untraced run: every end-to-end metric. Each round sets up a fresh
/// cluster, warms it up, and runs closed-loop windows of a fixed number of
/// batches. Throughput is the median over windows; latency percentiles come
/// from 1000-sample windows of closed-loop batch latency. With one
/// batch outstanding, `p50_ms` is close to the batch size over throughput.
/// Open-loop latency at the offered rate is measured by the traced run
/// (`loadgen.open_p99_ms`): on a shared host it follows the host's stalls
/// more than the program.
fn untraced(w: &Workload, seed: u64, secs: f64) -> Result<Report, String> {
    let fixture = w.fixture();
    let plan = Plan::new(w, secs);
    let mut warmup_gen = OpGen::new(w, seed, Stream::Warmup);
    let mut closed_gen = OpGen::new(w, seed, Stream::Closed);
    let mut total = Tally::default();
    let mut checks: Vec<Check> = Vec::new();
    let (mut setups, mut throughputs) = (Vec::new(), Vec::new());
    let mut latency_ms = Vec::new();
    for _ in 0..ROUNDS {
        let mut set_up = || {
            let t0 = Instant::now();
            let cluster = w.start(&fixture);
            setups.push(t0.elapsed().as_secs_f64());
            cluster
        };
        for _ in 1..SETUPS_PER_ROUND {
            drop(set_up());
        }
        let mut cluster = set_up();
        let api: &mut dyn ClientApi = &mut cluster;
        let mut tally = Tally::new(&fixture);
        closed_loop(api, &mut warmup_gen, &mut tally, plan.warmup, None, 0);
        for _ in 0..WINDOWS_PER_ROUND {
            let (closed, _) = closed_loop(api, &mut closed_gen, &mut tally, plan.closed, None, 0);
            throughputs.push(closed.throughput());
            latency_ms.extend(closed.latency_ms);
        }
        merge_checks(&mut checks, check(api, &fixture, &tally));
        total.add_counts(&tally);
    }
    // Every round offers the same work, so the peak does not grow with
    // the cluster's speed.
    let peak_rss_mb = peak_rss_mib();
    let (p50, p99) = closed_loop_latency(&latency_ms)?;
    let sync_share = total.synchronized as f64 / total.committed.max(1) as f64;
    let metric = |name, value, unit| Metric { name, value, unit };
    let mut report = Report::from_tally(Vec::new(), checks, &total);
    let failed_share = report.failed_share();
    report.metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("throughput_ops_s", median(&throughputs), "ops/s"),
        metric("p50_ms", p50, "ms"),
        metric("p99_ms", p99, "ms"),
        metric("local_commit_share", 1.0 - sync_share, "ratio"),
        metric("committed_share", 1.0 - failed_share, "ratio"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    report.notes = vec![
        format!("sync_share {sync_share} ratio"),
        format!("failed_share {failed_share} ratio"),
        format!("closed_loop_samples {}", latency_ms.len()),
        format!("setup_samples {}", setups.len()),
    ];
    Ok(report)
}

/// Folds one round's checks into the run's: a check holds when it held in
/// every round, and keeps the first failure's detail.
fn merge_checks(run: &mut Vec<Check>, round: Vec<Check>) {
    for c in round {
        match run.iter_mut().find(|r| r.name == c.name) {
            Some(r) if r.ok && !c.ok => *r = c,
            Some(_) => {}
            None => run.push(c),
        }
    }
}

/// The host fingerprint every result carries: results from different
/// hosts are not comparable.
fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    format!(
        "host cpu={cpu:?} nproc={nproc} kernel={kernel:?} rustc={:?} commit={}",
        env!("PERFBENCH_RUSTC_VERSION"),
        git_commit()
    )
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git work tree.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")).unwrap_or_else(|| {
                read(".git/packed-refs")
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(reference))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
                    .unwrap_or_else(|| "unknown".to_string())
            }),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn json_result(report: &Report, correct: bool) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {:?}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fastpath|tpcc-mix|general-lpp --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host_fingerprint());
    let result = if args.trace {
        layers::traced(&w, args.seed, args.seconds)
    } else {
        untraced(&w, args.seed, args.seconds)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            std::process::exit(1);
        }
    };
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("info {note}");
    }
    for c in &report.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("check {} {verdict} {}", c.name, c.detail);
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", m.name);
        std::process::exit(1);
    }
    let correct = report.checks.iter().all(|c| c.ok) && report.failed == 0;
    println!("verdict {}", if correct { "correct" } else { "INCORRECT" });
    println!("{}", json_result(&report, correct));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` lists in one section, in order. The file
    /// keeps one entry per line.
    fn listed(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let mut current = "";
        let mut names = Vec::new();
        for line in text.lines().map(str::trim) {
            if let Some(key) = line.strip_prefix('"').and_then(|l| l.split('"').next()) {
                current = key;
            }
            if current == section {
                if let Some(rest) = line.strip_prefix("{\"name\": \"") {
                    names.extend(rest.split('"').next().map(str::to_string));
                }
            }
        }
        names
    }

    fn assert_emits(report: &Report, section: &str, workload: &str) {
        let mut emitted: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let mut wanted = listed(section);
        emitted.sort_unstable();
        wanted.sort_unstable();
        assert_eq!(emitted, wanted, "{workload}: {section} metrics");
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
        }
        assert!(report.checks.iter().all(|c| c.ok), "{workload}: checks");
        assert_eq!(report.failed, 0, "{workload}: failed ops");
    }

    #[test]
    fn the_workloads_are_the_listed_ones() {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed("workloads"), names);
    }

    /// A short run of every workload in both modes emits every metric
    /// `BENCHMARK.json` names, as a finite value, and passes its checks.
    /// One test, so the runs never share the cores with each other.
    #[test]
    fn short_runs_emit_every_listed_metric() {
        for w in workload::WORKLOADS {
            // At its capacity the general path needs a run of about 7 s
            // for 1000 closed-loop latency samples.
            let secs = if w.kind == workload::Kind::GeneralLpp {
                8.0
            } else {
                2.0
            };
            let report = untraced(&w, 1, secs).expect("untraced run");
            assert_emits(&report, "end_to_end", w.name);
            let report = layers::traced(&w, 1, secs).expect("traced run");
            assert_emits(&report, "per_layer", w.name);
        }
    }
}
