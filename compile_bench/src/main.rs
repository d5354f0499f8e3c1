//! End-to-end and per-layer benchmark of the S-SYNC compilers.
//!
//! ```text
//! compile-bench --workload <paper_grid|tight_sweep|qasm_service> --seed N
//!               --seconds S --trace <0|1> [--daemon PATH]
//! ```
//!
//! Run from the repository root (`qasm_service` reads `workloads/*.qasm`
//! and needs the `ssync-serviced` binary given by `--daemon`). The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. Spans of the traced run and the work fingerprints go to
//! `.bench_out/`.

mod check;
mod daemon;
mod direct;
mod report;
mod service;
mod trace;

use report::median;
use ssync_baselines::CompilerKind;
use ssync_sim::ExecutionReport;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics: name and unit, reported on every workload.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("shuttles", "count"),
    ("swaps", "count"),
    ("success_geomean", "prob"),
    ("exec_time_ms", "ms"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("scheduler.ms", "ms"),
    ("scheduler.ns_per_candidate", "ns"),
    ("scheduler.scoring_share", "ratio"),
    ("scheduler.iterations", "count"),
    ("scheduler.candidates", "count"),
    ("scheduler.frontier_rebuilds", "count"),
    ("scheduler.stall_entries", "count"),
    ("scheduler.fallback_gate_share", "ratio"),
    ("scheduler.heuristic_swaps", "count"),
    ("placement.ms", "ms"),
    ("placement.share", "ratio"),
    ("sim.evaluate_ms", "ms"),
    ("baselines.murali_ms", "ms"),
    ("baselines.dai_ms", "ms"),
    ("baselines.greedy_ms", "ms"),
    ("baselines.perm_route_ms", "ms"),
    ("arch.device_build_ms", "ms"),
    ("arch.devices", "count"),
    ("qasm.parse_ms", "ms"),
    ("qasm.parse_mb_per_s", "MB/s"),
    ("qasm.source_kb", "KB"),
    ("service.submit_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("service.hit_ms", "ms"),
    ("service.miss_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_entries", "count"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.outcome_kb", "KB"),
    ("quality.shuttle_ratio_vs_dai", "ratio"),
    ("quality.shuttle_ratio_vs_murali", "ratio"),
    ("quality.swap_ratio_vs_dai", "ratio"),
    ("quality.success_wins_vs_dai", "count"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// What a workload run hands back to `main`.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Position of `kind` in `CompilerKind::ALL`.
pub fn kind_index(kind: CompilerKind) -> usize {
    CompilerKind::ALL.iter().position(|&k| k == kind).expect("every kind is in ALL")
}

/// For each metric of the first pass, its median over all passes.
pub fn median_per_name(per_pass: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let names: Vec<&str> =
        per_pass.first().map(|p| p.iter().map(|m| m.0).collect()).unwrap_or_default();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = per_pass
                .iter()
                .filter_map(|p| p.iter().find(|m| m.0 == name))
                .map(|m| m.1)
                .collect();
            (name, median(&values))
        })
        .collect()
}

/// The four quality metrics over the S-SYNC jobs of one pass of distinct
/// inputs (Figs. 8–10 and the estimated makespan).
#[derive(Default)]
pub struct Quality {
    shuttles: u64,
    swaps: u64,
    log_success: f64,
    jobs: u64,
    exec_time_us: f64,
}

impl Quality {
    pub fn add(&mut self, report: &ExecutionReport) {
        self.shuttles += report.counts.shuttles as u64;
        self.swaps += report.counts.swap_gates as u64;
        self.log_success += report.success_rate.ln();
        self.jobs += 1;
        self.exec_time_us += report.total_time_us;
    }

    pub fn metrics(&self) -> [(&'static str, f64); 4] {
        [
            ("shuttles", self.shuttles as f64),
            ("swaps", self.swaps as f64),
            ("success_geomean", (self.log_success / self.jobs.max(1) as f64).exp()),
            ("exec_time_ms", self.exec_time_us * 1e-3),
        ]
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--daemon" => daemon = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        daemon,
    })
}

fn run(args: &Args, out_dir: &Path) -> Result<RunResult, String> {
    let (result, recorder) = match args.workload.as_str() {
        "paper_grid" | "tight_sweep" if args.trace => {
            let (result, rec) =
                direct::run_traced(&args.workload, args.seed, args.seconds, out_dir);
            (result, Some(rec))
        }
        "paper_grid" | "tight_sweep" => {
            (direct::run(&args.workload, args.seed, args.seconds, out_dir), None)
        }
        "qasm_service" => {
            let exe = args.daemon.as_deref().ok_or("qasm_service needs --daemon")?;
            service::run(args.seed, args.seconds, out_dir, exe, args.trace)?
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let Some(rec) = recorder else { return Ok(result) };
    let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, rec.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", rec.len(), path.display());
    let mut result = result;
    result.metrics.push(("trace.spans", rec.len() as f64));
    Ok(result)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("{}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let result = match run(&args, &out_dir) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = result.metrics.iter().find(|m| m.0 == *name).map_or(0.0, |m| m.1);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    println!("{line}");
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
