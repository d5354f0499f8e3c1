//! `paper_grid` and `tight_sweep`: direct `CompilerKind::compile_on_with`
//! calls on devices built during set-up, with no compile service and no
//! result cache anywhere on the timed path.

use crate::check::check;
use crate::report::{check_against_earlier_runs, peak_rss_mb, percentile, Fingerprint, Rng};
use crate::trace::{Recorder, NO_PARENT};
use crate::{kind_index, median_per_name, Quality, RunResult};
use ssync_arch::{Device, QccdTopology};
use ssync_baselines::CompilerKind;
use ssync_bench::{comparison_targets, scaled_app, AppKind, BenchScale, Table};
use ssync_circuit::{generators, Circuit};
use ssync_core::{initial, CompileError, CompileOutcome, CompileScratch, CompilerConfig};
use ssync_core::{SSyncCompiler, Scheduler};
use ssync_core::{SchedulerScratch, SchedulerStats, ScoringTelemetry};
use ssync_sim::{CompiledProgram, ExecutionReport};
use std::path::Path;
use std::time::Instant;

pub struct Cell {
    pub label: String,
    pub device: usize,
    pub circuit: Circuit,
}

pub struct Inputs {
    pub devices: Vec<(String, Device)>,
    pub cells: Vec<Cell>,
    /// (cell, compiler) in the seeded order one pass compiles them.
    pub jobs: Vec<(usize, CompilerKind)>,
}

/// The Figs. 8–10 grid: every `comparison_targets(Paper)` cell. The seed
/// only orders the jobs.
fn paper_cells() -> (Vec<(String, QccdTopology)>, Vec<Cell>) {
    let mut topologies: Vec<(String, QccdTopology)> = Vec::new();
    let mut cells = Vec::new();
    for (app, qubits, names) in comparison_targets(BenchScale::Paper) {
        let circuit = scaled_app(app, qubits);
        for name in names {
            let topology = QccdTopology::named(name).expect("paper topology");
            if topology.total_capacity() <= circuit.num_qubits() {
                continue;
            }
            let device = match topologies.iter().position(|(n, _)| n == name) {
                Some(i) => i,
                None => {
                    topologies.push((name.to_string(), topology));
                    topologies.len() - 1
                }
            };
            let label = format!("{}_{}/{name}", app.label(), qubits);
            cells.push(Cell { label, device, circuit: circuit.clone() });
        }
    }
    (topologies, cells)
}

/// Seeded instances of each (generator, size, grid) stratum in
/// `tight_sweep`. Several per stratum keep the seeded share's cost, and so
/// the latency percentiles, nearly the same from seed to seed.
const TIGHT_INSTANCES: usize = 3;

/// Tight grids (4–6 ions per trap), each with the six apps at one size
/// and [`TIGHT_INSTANCES`] draws of each seeded generator at three sizes:
/// 99 circuits of 12–24 qubits. The (family, size, device) strata are
/// fixed so pass totals compare across seeds; the seed draws the
/// generators' graphs, gate streams and secrets, and the job order. Three
/// sizes per grid, rather than two, keep the p90 (the median S-SYNC job)
/// inside one size's cluster instead of in the gap between two.
fn tight_cells(rng: &mut Rng) -> (Vec<(String, QccdTopology)>, Vec<Cell>) {
    let grids = [(2, 2, 6, [12, 15, 18]), (2, 3, 5, [16, 19, 22]), (3, 3, 4, [20, 22, 24])];
    let mut topologies = Vec::new();
    let mut cells = Vec::new();
    for (device, &(rows, cols, capacity, sizes)) in grids.iter().enumerate() {
        let name = format!("grid({rows},{cols},{capacity})");
        topologies.push((name.clone(), QccdTopology::grid(rows, cols, capacity)));
        let mut circuits: Vec<Circuit> =
            AppKind::ALL.iter().map(|&app| scaled_app(app, sizes[0])).collect();
        for n in sizes {
            for which in 0..3 {
                circuits.extend((0..TIGHT_INSTANCES).map(|_| seeded_generator(rng, which, n)));
            }
        }
        for (i, circuit) in circuits.into_iter().enumerate() {
            let label = format!("{}#{i}/{name}", circuit.name());
            cells.push(Cell { label, device, circuit });
        }
    }
    (topologies, cells)
}

/// An `n`-qubit circuit from seeded generator `which`: a random
/// two-qubit circuit, QAOA on a random graph, or Bernstein–Vazirani with
/// a random secret of fixed weight (so every draw has the same gates).
pub fn seeded_generator(rng: &mut Rng, which: usize, n: usize) -> Circuit {
    match which {
        0 => generators::random_two_qubit_circuit(n, 3 * n, rng.next_u64()),
        1 => {
            let mut qaoa = generators::qaoa_random_graph(n, 2, 0.25, rng.next_u64());
            qaoa.set_name(format!("QAOA-G_{n}"));
            qaoa
        }
        _ => {
            let mut secret: Vec<bool> = (0..n - 1).map(|i| i < n / 2).collect();
            rng.shuffle(&mut secret);
            let mut bv = generators::bernstein_vazirani_with_secret(&secret);
            bv.set_name(format!("BV-S_{n}"));
            bv
        }
    }
}

/// Generates the workload's inputs and builds its devices (the all-pairs
/// distance matrix included). Device builds are traced when `rec` is set.
pub fn setup(
    workload: &str,
    seed: u64,
    config: &CompilerConfig,
    rec: Option<&mut Recorder>,
) -> Inputs {
    let mut rng = Rng::new(seed);
    let (topologies, cells) =
        if workload == "paper_grid" { paper_cells() } else { tight_cells(&mut rng) };
    let mut rec = rec;
    let devices = topologies
        .into_iter()
        .map(|(name, topology)| {
            let span = rec.as_deref_mut().map(|r| r.open("arch.device_build", 0, NO_PARENT));
            let device = Device::build(topology, config.weights);
            device.distance_matrix();
            if let (Some(r), Some(span)) = (rec.as_deref_mut(), span) {
                r.close(span);
            }
            (name, device)
        })
        .collect();
    let mut jobs: Vec<(usize, CompilerKind)> = (0..cells.len())
        .flat_map(|cell| CompilerKind::ALL.into_iter().map(move |kind| (cell, kind)))
        .collect();
    rng.shuffle(&mut jobs);
    Inputs { devices, cells, jobs }
}

/// Everything a pass keeps of one job, for checking and the quality rows.
struct Compiled<'a> {
    program: &'a CompiledProgram,
    final_placement: &'a ssync_arch::Placement,
    report: ExecutionReport,
    stats: SchedulerStats,
    candidates: u64,
}

/// One (cell, kind) quality row.
pub struct Row {
    cell: usize,
    kind: CompilerKind,
    shuttles: usize,
    swaps: usize,
    success: f64,
}

/// Checks one job's output and folds it into the pass fingerprint and,
/// on the first pass, the quality rows. Returns `false` if the check fails.
fn account(
    inputs: &Inputs,
    cell: usize,
    kind: CompilerKind,
    out: &Compiled<'_>,
    fingerprint: &mut Fingerprint,
    rows: Option<&mut Vec<Row>>,
) -> bool {
    let c = &inputs.cells[cell];
    let topology = inputs.devices[c.device].1.topology();
    if let Err(e) = check(&c.circuit, topology, out.program, out.final_placement, &out.report) {
        eprintln!("check failed: {kind:?} on {}: {e}", c.label);
        return false;
    }
    let counts = out.report.counts;
    let k = kind_index(kind);
    fingerprint.shuttles[k] += counts.shuttles as u64;
    fingerprint.swaps[k] += counts.swap_gates as u64;
    if kind == CompilerKind::SSync {
        fingerprint.iterations += out.stats.iterations as u64;
        fingerprint.candidates += out.candidates;
        fingerprint.fallback_gates += out.stats.fallback_routed_gates as u64;
    }
    if let Some(rows) = rows {
        rows.push(Row {
            cell,
            kind,
            shuttles: counts.shuttles,
            swaps: counts.swap_gates,
            success: out.report.success_rate,
        });
    }
    true
}

/// Passes in an untraced run of `seconds`: `seconds` over the time one
/// pass took on the host measured in `STEADINESS.md` (at least two). Each
/// job's latency is its fastest call over these passes. The count follows
/// from `seconds` alone, never from the speed being measured, so a faster
/// build does not read faster merely because it fits more passes, and
/// more calls, into a run.
pub fn run_passes(workload: &str, seconds: f64) -> usize {
    let pass_s = if workload == "paper_grid" { 1.6 } else { 1.3 };
    ((seconds / pass_s).round() as usize).max(2)
}

/// Compiles every job of `inputs` once, in order, timing each
/// `compile_on_with` call alone. `then` sees each job's result outside the
/// timed interval. Returns the call durations in seconds.
fn timed_pass(
    inputs: &Inputs,
    config: &CompilerConfig,
    scratch: &mut CompileScratch,
    mut then: impl FnMut(usize, Result<CompileOutcome, CompileError>),
) -> Vec<f64> {
    let mut durations = Vec::with_capacity(inputs.jobs.len());
    for (j, &(cell, kind)) in inputs.jobs.iter().enumerate() {
        let c = &inputs.cells[cell];
        let device = &inputs.devices[c.device].1;
        let started = Instant::now();
        let result = kind.compile_on_with(device, &c.circuit, config, None, scratch);
        durations.push(started.elapsed().as_secs_f64());
        then(j, result);
    }
    durations
}

/// Untraced run: [`run_passes`] closed-loop passes over the job list.
pub fn run(workload: &str, seed: u64, seconds: f64, out_dir: &Path) -> RunResult {
    let config = CompilerConfig::default();
    let mut scratch = CompileScratch::default();
    // Every pass compiles the same jobs in the same order and does the
    // same work (the fingerprint proves it), and host interference only
    // ever adds time, so a job's latency is its fastest call of the run,
    // and the set-up time the fastest set-up.
    let (mut passes, mut fastest_ms, mut fastest_setup_s) = (0, Vec::new(), f64::INFINITY);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut correct = true;
    let mut first: Option<Fingerprint> = None;
    let mut rows = Vec::new();
    let mut quality = Quality::default();
    let mut inputs;
    while {
        let started = Instant::now();
        inputs = setup(workload, seed, &config, None);
        let setup_s = started.elapsed().as_secs_f64();
        fastest_setup_s = fastest_setup_s.min(setup_s);
        let mut fingerprint = Fingerprint::default();
        let first_pass = first.is_none();
        let durations = timed_pass(&inputs, &config, &mut scratch, |j, result| {
            let (cell, kind) = inputs.jobs[j];
            let ok = match &result {
                Ok(outcome) => {
                    let out = Compiled {
                        program: outcome.program(),
                        final_placement: outcome.final_placement(),
                        report: outcome.report(),
                        stats: outcome.scheduler_stats(),
                        candidates: outcome.scoring_telemetry().candidates_scored,
                    };
                    if first_pass && kind == CompilerKind::SSync {
                        quality.add(&out.report);
                    }
                    account(
                        &inputs,
                        cell,
                        kind,
                        &out,
                        &mut fingerprint,
                        first_pass.then_some(&mut rows),
                    )
                }
                Err(e) => {
                    eprintln!("compile failed: {kind:?} on {}: {e}", inputs.cells[cell].label);
                    false
                }
            };
            failed += u64::from(!ok);
        });
        attempted += durations.len() as u64;
        passes += 1;
        let pass_s: f64 = durations.iter().sum();
        println!("pass {passes}: {} jobs in {pass_s:.4} s, set-up {setup_s:.6} s", durations.len());
        fastest_ms.resize(durations.len(), f64::INFINITY);
        for (fastest, d) in fastest_ms.iter_mut().zip(&durations) {
            *fastest = fastest.min(d * 1e3);
        }
        correct &= same_as_first(&mut first, fingerprint);
        passes < run_passes(workload, seconds)
    } {}
    let fingerprint = first.expect("at least one pass ran");
    correct &= verdict(check_against_earlier_runs(out_dir, workload, seed, &fingerprint));
    print_rows(&inputs, &rows);
    println!("fingerprint: {}", fingerprint.render());
    print_latency_samples(&fastest_ms, &format!("jobs, each the fastest of {passes} passes"));
    let rss = peak_rss_mb(std::process::id()).unwrap_or(0.0);
    let mut metrics = vec![
        ("setup_s", fastest_setup_s),
        ("jobs_per_s", fastest_ms.len() as f64 / (fastest_ms.iter().sum::<f64>() * 1e-3)),
        ("latency_p50_ms", percentile(&fastest_ms, 50.0)),
        ("latency_p90_ms", percentile(&fastest_ms, 90.0)),
        ("peak_rss_mb", rss),
    ];
    metrics.extend(quality.metrics());
    RunResult { correct: correct && failed == 0, attempted, failed, metrics }
}

/// Records the first pass's fingerprint and compares every later one.
pub fn same_as_first(first: &mut Option<Fingerprint>, fingerprint: Fingerprint) -> bool {
    match first {
        None => {
            *first = Some(fingerprint);
            true
        }
        Some(f) if *f == fingerprint => true,
        Some(f) => {
            eprintln!("pass fingerprint {} != first pass {}", fingerprint.render(), f.render());
            false
        }
    }
}

pub fn verdict(result: Result<(), String>) -> bool {
    result.map_err(|e| eprintln!("{e}")).is_ok()
}

/// Prints the latency sample count, how many samples lie beyond p90, and
/// the p50 and p90.
pub fn print_latency_samples(latencies_ms: &[f64], what: &str) {
    let (p50, p90) = (percentile(latencies_ms, 50.0), percentile(latencies_ms, 90.0));
    let beyond = latencies_ms.iter().filter(|&&l| l > p90).count();
    println!(
        "latency samples: {} {what}, {beyond} beyond p90; p50 {p50:.4} ms, p90 {p90:.4} ms",
        latencies_ms.len()
    );
}

/// Per-cell shuttles, SWAPs and success rate for every kind, then the
/// S-SYNC geomean ratios to Murali and Dai.
fn print_rows(inputs: &Inputs, rows: &[Row]) {
    let mut table = Table::new(
        ["cell".to_string()]
            .into_iter()
            .chain(CompilerKind::ALL.iter().map(|k| format!("{k:?} sh/sw/p"))),
    );
    for (i, cell) in inputs.cells.iter().enumerate() {
        let mut line = vec![cell.label.clone()];
        for kind in CompilerKind::ALL {
            line.push(match rows.iter().find(|r| r.cell == i && r.kind == kind) {
                Some(r) => format!("{}/{}/{:.3e}", r.shuttles, r.swaps, r.success),
                None => "-".into(),
            });
        }
        table.push_row(line);
    }
    println!("{}", table.render());
    let q = QualityRatios::from_rows(rows);
    println!(
        "S-SYNC geomean ratios: shuttles {:.3}x Murali, {:.3}x Dai; SWAPs {:.3}x Murali, {:.3}x Dai; \
         success beats Dai in {} cells",
        q.shuttles_vs_murali, q.shuttles_vs_dai, q.swaps_vs_murali, q.swaps_vs_dai, q.success_wins_vs_dai
    );
}

/// Geomean ratios S-SYNC / baseline over cells where both are non-zero.
pub struct QualityRatios {
    pub shuttles_vs_murali: f64,
    pub shuttles_vs_dai: f64,
    pub swaps_vs_murali: f64,
    pub swaps_vs_dai: f64,
    pub success_wins_vs_dai: usize,
}

impl QualityRatios {
    pub fn from_rows(rows: &[Row]) -> Self {
        let ratio = |base: CompilerKind, metric: fn(&Row) -> f64| {
            let (mut log_sum, mut n) = (0.0, 0usize);
            for s in rows.iter().filter(|r| r.kind == CompilerKind::SSync) {
                if let Some(b) = rows.iter().find(|r| r.kind == base && r.cell == s.cell) {
                    let (a, b) = (metric(s), metric(b));
                    if a > 0.0 && b > 0.0 {
                        log_sum += (a / b).ln();
                        n += 1;
                    }
                }
            }
            if n == 0 {
                1.0
            } else {
                (log_sum / n as f64).exp()
            }
        };
        let shuttles = |r: &Row| r.shuttles as f64;
        let swaps = |r: &Row| r.swaps as f64;
        let success_wins_vs_dai = rows
            .iter()
            .filter(|s| s.kind == CompilerKind::SSync)
            .filter(|s| {
                rows.iter().any(|d| {
                    d.kind == CompilerKind::Dai && d.cell == s.cell && s.success > d.success
                })
            })
            .count();
        QualityRatios {
            shuttles_vs_murali: ratio(CompilerKind::Murali, shuttles),
            shuttles_vs_dai: ratio(CompilerKind::Dai, shuttles),
            swaps_vs_murali: ratio(CompilerKind::Murali, swaps),
            swaps_vs_dai: ratio(CompilerKind::Dai, swaps),
            success_wins_vs_dai,
        }
    }
}

/// Span name of each baseline compile in the traced run.
fn baseline_span(kind: CompilerKind) -> &'static str {
    match kind {
        CompilerKind::Murali => "baselines.murali",
        CompilerKind::Dai => "baselines.dai",
        CompilerKind::Greedy => "baselines.greedy",
        CompilerKind::PermRoute => "baselines.perm_route",
        CompilerKind::SSync => unreachable!("S-SYNC is traced phase by phase"),
    }
}

/// Work counters of the S-SYNC jobs of one traced pass.
#[derive(Default)]
struct SchedulerWork {
    iterations: u64,
    candidates: u64,
    frontier_rebuilds: u64,
    stall_entries: u64,
    fallback_gates: u64,
    heuristic_swaps: u64,
    two_qubit_gates: u64,
    scoring_ns: u64,
}

impl SchedulerWork {
    fn add(
        &mut self,
        stats: &SchedulerStats,
        telemetry: &ScoringTelemetry,
        two_qubit_gates: usize,
    ) {
        self.iterations += stats.iterations as u64;
        self.heuristic_swaps += stats.heuristic_swaps as u64;
        self.fallback_gates += stats.fallback_routed_gates as u64;
        self.candidates += telemetry.candidates_scored;
        self.frontier_rebuilds += telemetry.frontier_rebuilds;
        self.stall_entries += telemetry.stall_fallback_entries;
        self.scoring_ns += telemetry.scoring_time_ns;
        self.two_qubit_gates += two_qubit_gates as u64;
    }
}

/// Traced run: pairs of an untraced and a traced pass over the same
/// inputs, for `seconds` of wall time (at least two pairs); each pair
/// gives the tracing overhead. S-SYNC jobs run
/// `validate_on`, `build_placement`, `Scheduler::run` and `evaluate`
/// separately, and each result must be bit-identical to
/// `compile_on_with` on the same inputs.
pub fn run_traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> (RunResult, Recorder) {
    let config = CompilerConfig::default();
    let compiler = SSyncCompiler::new(config);
    let tracer = compiler.tracer();
    let mut scratch = CompileScratch::default();
    let mut scheduler_scratch = SchedulerScratch::default();

    let mut rec = Recorder::new();
    let run_started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut correct = true;
    let mut first: Option<Fingerprint> = None;
    let mut rows = Vec::new();
    let mut per_pass = Vec::new();
    let mut inputs;
    while {
        inputs = setup(workload, seed, &config, Some(&mut rec));
        let untraced_s: f64 = timed_pass(&inputs, &config, &mut scratch, |_, _| {}).iter().sum();
        let mut fingerprint = Fingerprint::default();
        let mut work = SchedulerWork::default();
        let mut pass_job_ns = 0u64;
        let first_pass = first.is_none();
        for (j, &(cell, kind)) in inputs.jobs.iter().enumerate() {
            let c = &inputs.cells[cell];
            let device = &inputs.devices[c.device].1;
            let job = j as u32;
            attempted += 1;
            let job_span = rec.open("job", job, NO_PARENT);
            let ok = if kind == CompilerKind::SSync {
                let decomposed = compiler.validate_on(device, &c.circuit).and_then(|()| {
                    let span = rec.open("placement", job, job_span);
                    let placement = initial::build_placement(&c.circuit, device, &config);
                    rec.close(span);
                    let span = rec.open("scheduler", job, job_span);
                    let taken = std::mem::take(&mut scheduler_scratch);
                    let mut scheduler = Scheduler::with_scratch(device, &config, taken);
                    let result = scheduler.run(&c.circuit, placement);
                    let (stats, telemetry) = (scheduler.stats(), scheduler.scoring_telemetry());
                    scheduler_scratch = scheduler.into_scratch();
                    rec.close(span);
                    let (program, final_placement) = result?;
                    let span = rec.open("sim.evaluate", job, job_span);
                    let report = tracer.evaluate(&program);
                    rec.close(span);
                    Ok((program, final_placement, report, stats, telemetry))
                });
                rec.close(job_span);
                let direct = kind.compile_on_with(device, &c.circuit, &config, None, &mut scratch);
                match (decomposed, direct) {
                    (Ok((program, final_placement, report, stats, telemetry)), Ok(direct)) => {
                        let identical = direct.program().ops() == program.ops()
                            && *direct.final_placement() == final_placement
                            && direct.scheduler_stats() == stats
                            && direct.report() == report
                            && direct.scoring_telemetry().candidates_scored
                                == telemetry.candidates_scored;
                        if !identical {
                            eprintln!(
                                "decomposed S-SYNC differs from compile_on_with on {}",
                                c.label
                            );
                            correct = false;
                        }
                        work.add(&stats, &telemetry, c.circuit.two_qubit_gate_count());
                        let out = Compiled {
                            program: &program,
                            final_placement: &final_placement,
                            report,
                            stats,
                            candidates: telemetry.candidates_scored,
                        };
                        identical
                            && account(
                                &inputs,
                                cell,
                                kind,
                                &out,
                                &mut fingerprint,
                                first_pass.then_some(&mut rows),
                            )
                    }
                    (decomposed, direct) => {
                        eprintln!(
                            "S-SYNC failed on {}: decomposed {:?}, direct {:?}",
                            c.label,
                            decomposed.err(),
                            direct.err()
                        );
                        false
                    }
                }
            } else {
                let span = rec.open(baseline_span(kind), job, job_span);
                let result = kind.compile_on_with(device, &c.circuit, &config, None, &mut scratch);
                rec.close(span);
                rec.close(job_span);
                match result {
                    Ok(outcome) => {
                        let span = rec.open("sim.evaluate", job, NO_PARENT);
                        let report = tracer.evaluate(outcome.program());
                        rec.close(span);
                        let out = Compiled {
                            program: outcome.program(),
                            final_placement: outcome.final_placement(),
                            report: outcome.report(),
                            stats: outcome.scheduler_stats(),
                            candidates: 0,
                        };
                        report == outcome.report()
                            && account(
                                &inputs,
                                cell,
                                kind,
                                &out,
                                &mut fingerprint,
                                first_pass.then_some(&mut rows),
                            )
                    }
                    Err(e) => {
                        eprintln!("compile failed: {kind:?} on {}: {e}", c.label);
                        false
                    }
                }
            };
            pass_job_ns += rec.duration_ns(job_span);
            failed += u64::from(!ok);
        }
        let self_ns = rec.end_pass();
        let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 * 1e-6;
        let scheduler_ns = ms("scheduler") * 1e6;
        let w = &work;
        per_pass.push(vec![
            ("scheduler.ms", ms("scheduler")),
            ("scheduler.ns_per_candidate", scheduler_ns / w.candidates.max(1) as f64),
            ("scheduler.scoring_share", w.scoring_ns as f64 / scheduler_ns.max(1.0)),
            ("scheduler.iterations", w.iterations as f64),
            ("scheduler.candidates", w.candidates as f64),
            ("scheduler.frontier_rebuilds", w.frontier_rebuilds as f64),
            ("scheduler.stall_entries", w.stall_entries as f64),
            (
                "scheduler.fallback_gate_share",
                w.fallback_gates as f64 / w.two_qubit_gates.max(1) as f64,
            ),
            ("scheduler.heuristic_swaps", w.heuristic_swaps as f64),
            ("placement.ms", ms("placement")),
            ("placement.share", ms("placement") / (pass_job_ns as f64 * 1e-6)),
            ("sim.evaluate_ms", ms("sim.evaluate")),
            ("baselines.murali_ms", ms("baselines.murali")),
            ("baselines.dai_ms", ms("baselines.dai")),
            ("baselines.greedy_ms", ms("baselines.greedy")),
            ("baselines.perm_route_ms", ms("baselines.perm_route")),
            ("arch.device_build_ms", ms("arch.device_build")),
            ("arch.devices", inputs.devices.len() as f64),
            ("trace.overhead", pass_job_ns as f64 * 1e-9 / untraced_s - 1.0),
        ]);
        correct &= same_as_first(&mut first, fingerprint);
        per_pass.len() < 2 || run_started.elapsed().as_secs_f64() < seconds
    } {}
    let fingerprint = first.expect("at least one pass ran");
    correct &= verdict(check_against_earlier_runs(out_dir, workload, seed, &fingerprint));
    println!("fingerprint: {}", fingerprint.render());
    println!("traced passes: {}", per_pass.len());
    let mut metrics = median_per_name(&per_pass);
    let q = QualityRatios::from_rows(&rows);
    metrics.extend([
        ("quality.shuttle_ratio_vs_dai", q.shuttles_vs_dai),
        ("quality.shuttle_ratio_vs_murali", q.shuttles_vs_murali),
        ("quality.swap_ratio_vs_dai", q.swaps_vs_dai),
        ("quality.success_wins_vs_dai", q.success_wins_vs_dai as f64),
    ]);
    let result = RunResult { correct: correct && failed == 0, attempted, failed, metrics };
    (result, rec)
}
