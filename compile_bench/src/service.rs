//! `qasm_service`: a seeded stream of OpenQASM 2.0 texts sent to a fresh
//! `ssync-serviced --tcp 127.0.0.1:0 --workers 1` per pass, from one
//! client thread holding one connection with two jobs outstanding. A
//! planned share of the requests repeat earlier ones and must be cache
//! hits.

use crate::check::check;
use crate::daemon::Daemon;
use crate::direct::{print_latency_samples, same_as_first, seeded_generator, verdict};
use crate::report::{
    check_against_earlier_runs, median, peak_rss_mb, percentile, Fingerprint, Rng,
};
use crate::trace::{Recorder, NO_PARENT};
use crate::{kind_index, median_per_name, Quality, RunResult};
use ssync_arch::{Device, QccdTopology};
use ssync_baselines::CompilerKind;
use ssync_bench::{scaled_app, AppKind};
use ssync_circuit::Circuit;
use ssync_core::{CompileOutcome, CompilerConfig, SSyncCompiler};
use ssync_service::client::{ClientError, RemoteJob, ServiceClient};
use ssync_service::codec::{decode_outcome, encode_outcome, ByteReader, ByteWriter};
use ssync_service::wire::RemoteQasmRequest;
use ssync_service::ServiceMetrics;
use std::collections::{HashSet, VecDeque};
use std::path::Path;
use std::time::Instant;

const PAPER_TOPOLOGIES: [&str; 6] = ["S-4", "L-4", "L-6", "G-2x2", "G-2x3", "G-3x3"];
/// Jobs the client keeps outstanding on its one connection.
const WINDOW: usize = 2;
/// Every `REPEAT_EVERY`-th distinct request (in stratum order) is sent a
/// second time, as an exact repeat that must be a cache hit: 16 of the 64
/// requests of a pass. The share is the benchmark's own choice, not taken
/// from recorded traffic: enough hits to time the hit path beside the
/// misses, with most requests still compiled.
const REPEAT_EVERY: usize = 3;
/// Passes per block. Each time metric is taken over the pooled jobs of a
/// block and reported as the median over the run's blocks, so a slow
/// stretch of the host that spans less than half the run does not move it.
const BLOCK_PASSES: usize = 10;
/// Seed of the generator circuits, the same for every workload seed, so
/// the S-SYNC quality totals are too: with the kinds cycling, a few
/// S-SYNC requests carry seeded circuits, and a fresh draw per seed moved
/// the S-SYNC SWAP total by a third.
const CIRCUIT_SEED: u64 = 0;

#[derive(Clone)]
pub struct Request {
    remote: RemoteQasmRequest,
    label: String,
    circuit: Circuit,
    topology: QccdTopology,
    /// Stream index of the request this one repeats.
    repeat_of: Option<usize>,
}

/// The distinct requests, in stratum order: the nine `workloads/*.qasm`
/// files, the six apps at two sizes, and three draws of each seeded
/// generator at three sizes, exported to QASM (8–48 qubits). Device and
/// compiler follow from a request's place in that order: the requests
/// cycle through the six paper topologies and the five compiler kinds.
/// The generator circuits are drawn from [`CIRCUIT_SEED`]. So every
/// workload seed sends the same requests; it draws their order and where
/// the repeats fall. The mix is synthetic: no record of served traffic
/// exists to take it from.
fn distinct_requests() -> Result<Vec<Request>, String> {
    let mut rng = Rng::new(CIRCUIT_SEED);
    let mut files: Vec<_> = std::fs::read_dir("workloads")
        .map_err(|e| format!("workloads/: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "qasm"))
        .collect();
    files.sort();
    if files.len() != 9 {
        return Err(format!("expected 9 workloads/*.qasm files, found {}", files.len()));
    }
    let mut sources = Vec::new();
    for path in &files {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let circuit =
            ssync_qasm::parse(&source).map_err(|e| format!("{}: {e}", path.display()))?.circuit;
        let name = path.file_name().expect("a file").to_string_lossy().into_owned();
        sources.push((name, source, circuit));
    }
    let mut circuits = Vec::new();
    for (i, &app) in AppKind::ALL.iter().enumerate() {
        circuits.push(scaled_app(app, 8 + 4 * (i % 3)));
        circuits.push(scaled_app(app, 32 + 8 * (i % 3)));
    }
    for which in 0..3 {
        for size in [12, 24, 36] {
            circuits.extend((0..3).map(|_| seeded_generator(&mut rng, which, size)));
        }
    }
    sources.extend(circuits.into_iter().map(|c| (c.name().to_string(), ssync_qasm::export(&c), c)));
    let config = CompilerConfig::default();
    let mut keys = HashSet::new();
    let mut requests = Vec::new();
    for (i, (name, source, circuit)) in sources.into_iter().enumerate() {
        let device = PAPER_TOPOLOGIES[i % PAPER_TOPOLOGIES.len()];
        let kind = CompilerKind::ALL[i % CompilerKind::ALL.len()];
        if !keys.insert((device, kind, circuit.content_hash())) {
            return Err(format!("{name} on {device} with {kind:?} is not a distinct request"));
        }
        requests.push(Request {
            remote: RemoteQasmRequest::new(device, source, kind, config),
            label: format!("{name}/{device}/{kind:?}"),
            circuit,
            topology: QccdTopology::named(device).expect("paper topology"),
            repeat_of: None,
        });
    }
    Ok(requests)
}

/// The request stream of pass `pass`: the distinct requests in a seeded
/// order, with an exact repeat of every [`REPEAT_EVERY`]-th one inserted
/// at a seeded position at least [`WINDOW`] places after its original, so
/// the original has been delivered (and cached) before the repeat is sent.
/// Every pass sends the same requests; the order differs from pass to
/// pass, so the latency percentiles average over many orders instead of
/// resting on which job one order queues behind which.
fn stream(seed: u64, pass: u64) -> Result<Vec<Request>, String> {
    let distinct = distinct_requests()?;
    let mut rng = Rng::new(seed ^ (pass + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let repeated: Vec<bool> = (0..distinct.len()).map(|i| i % REPEAT_EVERY == 0).collect();
    let mut order: Vec<usize> = (0..distinct.len()).collect();
    rng.shuffle(&mut order);
    // A repeated request must leave room for its repeat behind it.
    while let Some(late) = order[order.len() - WINDOW..].iter().position(|&i| repeated[i]) {
        let i = order.remove(order.len() - WINDOW + late);
        order.insert(rng.below(order.len() - WINDOW), i);
    }
    let mut slots: Vec<Option<Request>> = distinct.into_iter().map(Some).collect();
    let mut stream: Vec<Request> =
        order.iter().map(|&i| slots[i].take().expect("each once")).collect();
    let mut originals: Vec<usize> = (0..order.len()).filter(|&at| repeated[order[at]]).collect();
    rng.shuffle(&mut originals);
    // Insertions only ever move an earlier repeat further from its
    // original, so every placed repeat keeps its distance.
    for k in 0..originals.len() {
        let original = originals[k];
        let first = original + WINDOW;
        let at = first + rng.below(stream.len() - first + 1);
        let copy = Request { repeat_of: Some(original), ..stream[original].clone() };
        stream.insert(at, copy);
        let shift = |o: usize| if o >= at { o + 1 } else { o };
        for r in &mut stream[at + 1..] {
            r.repeat_of = r.repeat_of.map(shift);
        }
        for o in &mut originals[k + 1..] {
            *o = shift(*o);
        }
    }
    Ok(stream)
}

/// What one pass against one daemon produced.
struct Pass {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    outcomes: Vec<Option<CompileOutcome>>,
    metrics: ServiceMetrics,
    rss_mb: f64,
}

/// Sends the stream closed-loop with [`WINDOW`] jobs outstanding, then
/// reads the daemon's metrics and peak RSS and shuts it down.
fn send(
    daemon: &mut Daemon,
    mut client: ServiceClient,
    stream: &[Request],
    mut rec: Option<&mut Recorder>,
) -> Result<Pass, ClientError> {
    let mut outstanding: VecDeque<(usize, RemoteJob, Instant, usize)> = VecDeque::new();
    let mut latencies_ms = vec![0.0; stream.len()];
    let mut outcomes = Vec::with_capacity(stream.len());
    let mut next = 0;
    let started = Instant::now();
    while next < stream.len() || !outstanding.is_empty() {
        while outstanding.len() < WINDOW && next < stream.len() {
            let job = next as u32;
            let job_span =
                rec.as_deref_mut().map_or(NO_PARENT, |r| r.open("service.job", job, NO_PARENT));
            let sent = Instant::now();
            let span = rec.as_deref_mut().map(|r| r.open("service.submit", job, job_span));
            let (remote_job, _report) = client.submit_qasm(&stream[next].remote)?;
            if let (Some(r), Some(span)) = (rec.as_deref_mut(), span) {
                r.close(span);
            }
            outstanding.push_back((next, remote_job, sent, job_span));
            next += 1;
        }
        let (i, remote_job, sent, job_span) =
            outstanding.pop_front().expect("a job is outstanding");
        let span = rec.as_deref_mut().map(|r| r.open("service.wait", i as u32, job_span));
        let result = client.wait(remote_job)?;
        latencies_ms[i] = sent.elapsed().as_secs_f64() * 1e3;
        if let (Some(r), Some(span)) = (rec.as_deref_mut(), span) {
            r.close(span);
            r.close(job_span);
        }
        if let Err(e) = &result {
            eprintln!("compile failed: {}: {e}", stream[i].label);
        }
        outcomes.push(result.ok());
    }
    let wall_s = started.elapsed().as_secs_f64();
    let metrics = client.metrics()?;
    let rss_mb = peak_rss_mb(daemon.pid()).unwrap_or(0.0);
    client.shutdown()?;
    drop(client);
    daemon.wait_exit();
    Ok(Pass { wall_s, latencies_ms, outcomes, metrics, rss_mb })
}

/// Whether, after `blocks` whole blocks that took `timed_s`, the run goes
/// on: always for the first two blocks, then while one more block of the
/// mean length so far fits in `seconds`.
fn another_block_fits(timed_s: f64, blocks: usize, seconds: f64) -> bool {
    blocks < 2 || timed_s + timed_s / blocks as f64 <= seconds
}

/// Starts a fresh daemon and connects to it: the per-pass part of set-up.
fn start(exe: &Path) -> Result<(Daemon, ServiceClient), String> {
    let daemon = Daemon::spawn(exe)?;
    let client = ServiceClient::connect_tcp(daemon.addr.as_str(), None)
        .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
    Ok((daemon, client))
}

/// Runs the workload. Untraced, passes repeat in whole blocks of
/// [`BLOCK_PASSES`] while another block still fits in `seconds` of timed
/// pass time (at least two blocks). Traced, every other pass records
/// spans around the service round trips and then times the parse, codec
/// and evaluation layers on the pass's own sources and outcomes.
pub fn run(
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    exe: &Path,
    traced: bool,
) -> Result<(RunResult, Option<Recorder>), String> {
    let mut rec = traced.then(Recorder::new);
    let (mut passes, mut rss) = (0u64, vec![]);
    let (mut setups, mut rates, mut p50s, mut p90s) = (vec![], vec![], vec![], vec![]);
    // The block in progress: its fastest set-up, summed pass time and
    // pooled latencies.
    let (mut block_setup_s, mut block_s, mut block_ms) = (f64::INFINITY, 0.0, vec![]);
    let (mut attempted, mut failed, mut timed_s) = (0u64, 0u64, 0.0f64);
    let mut correct = true;
    let mut first: Option<Fingerprint> = None;
    let mut quality = Quality::default();
    let mut per_pass = Vec::new();
    let mut untraced_wall_s = 0.0;
    let run_started = Instant::now();
    let tracer = SSyncCompiler::new(CompilerConfig::default()).tracer();
    while {
        let started = Instant::now();
        // A traced pass sends the order of the untraced pass before it.
        let stream = stream(seed, if traced { passes / 2 } else { passes })?;
        let (mut daemon, client) = start(exe)?;
        let setup_s = started.elapsed().as_secs_f64();
        // Traced runs alternate untraced and traced passes; each traced
        // pass is compared with the untraced one before it.
        let tracing = traced && passes % 2 == 1;
        let pass = send(&mut daemon, client, &stream, rec.as_mut().filter(|_| tracing))
            .map_err(|e| format!("daemon pass failed: {e}"))?;
        attempted += stream.len() as u64;
        passes += 1;
        println!(
            "pass {passes}: {} jobs in {:.4} s, set-up {setup_s:.6} s",
            stream.len(),
            pass.wall_s
        );
        rss.push(pass.rss_mb);
        if traced && !tracing {
            untraced_wall_s = pass.wall_s;
        } else if !traced {
            timed_s += pass.wall_s;
            block_setup_s = block_setup_s.min(setup_s);
            block_s += pass.wall_s;
            block_ms.extend_from_slice(&pass.latencies_ms);
            if passes % BLOCK_PASSES as u64 == 0 {
                setups.push(block_setup_s);
                rates.push(block_ms.len() as f64 / block_s);
                p50s.push(percentile(&block_ms, 50.0));
                p90s.push(percentile(&block_ms, 90.0));
                print_latency_samples(
                    &block_ms,
                    &format!("jobs in block {}, pooled over {BLOCK_PASSES} passes", rates.len()),
                );
                (block_setup_s, block_s) = (f64::INFINITY, 0.0);
                block_ms.clear();
            }
        }

        let first_pass = first.is_none();
        let mut fingerprint =
            Fingerprint { candidates: pass.metrics.candidates_scored, ..Default::default() };
        let (mut iterations, mut heuristic_swaps, mut fallback, mut two_qubit) = (0, 0, 0, 0);
        for (i, (request, outcome)) in stream.iter().zip(&pass.outcomes).enumerate() {
            let Some(outcome) = outcome else {
                failed += 1;
                continue;
            };
            let checked = check(
                &request.circuit,
                &request.topology,
                outcome.program(),
                outcome.final_placement(),
                &outcome.report(),
            );
            let same_as_original = request.repeat_of.is_none_or(|o| {
                pass.outcomes[o]
                    .as_ref()
                    .is_some_and(|orig| orig.program().ops() == outcome.program().ops())
            });
            if let Err(e) = &checked {
                eprintln!("check failed: {}: {e}", request.label);
            }
            if !same_as_original {
                eprintln!("cache hit {i} differs from its original: {}", request.label);
            }
            if checked.is_err() || !same_as_original {
                failed += 1;
                continue;
            }
            let kind = request.remote.compiler;
            let counts = outcome.counts();
            fingerprint.shuttles[kind_index(kind)] += counts.shuttles as u64;
            fingerprint.swaps[kind_index(kind)] += counts.swap_gates as u64;
            if kind == CompilerKind::SSync && request.repeat_of.is_none() {
                let stats = outcome.scheduler_stats();
                fingerprint.iterations += stats.iterations as u64;
                fingerprint.fallback_gates += stats.fallback_routed_gates as u64;
                iterations += stats.iterations;
                heuristic_swaps += stats.heuristic_swaps;
                fallback += stats.fallback_routed_gates;
                two_qubit += request.circuit.two_qubit_gate_count();
                if first_pass {
                    quality.add(&outcome.report());
                }
            }
        }
        correct &= same_as_first(&mut first, fingerprint);
        // `CacheStats::misses` counts lookups, and a miss is looked up
        // twice (again under the pending lock), so a planned miss is
        // asserted as one executed compile and one new cache entry.
        let hits = stream.iter().filter(|r| r.repeat_of.is_some()).count() as u64;
        let misses = stream.len() as u64 - hits;
        let m = &pass.metrics;
        let served = (m.cache.hits, m.jobs_executed(), m.cache.entries as u64, m.jobs_coalesced);
        if served != (hits, misses, misses, 0) {
            eprintln!(
                "daemon served (hits, compiles, entries, coalesced) {served:?}, planned ({hits}, {misses}, {misses}, 0)"
            );
            correct = false;
        }

        if let (true, Some(rec)) = (tracing, rec.as_mut()) {
            let mut layer = |name: &'static str, job: usize, f: &mut dyn FnMut()| {
                let span = rec.open(name, job as u32, NO_PARENT);
                f();
                rec.close(span);
            };
            let mut source_bytes = 0usize;
            for (j, request) in stream.iter().enumerate() {
                source_bytes += request.remote.source.len();
                let mut parsed = None;
                layer("qasm.parse", j, &mut || {
                    parsed = Some(ssync_qasm::parse(&request.remote.source))
                });
                let same = parsed
                    .and_then(|p| p.ok())
                    .is_some_and(|p| p.circuit.content_hash() == request.circuit.content_hash());
                correct &= same;
            }
            let mut devices = 0;
            for name in
                PAPER_TOPOLOGIES.iter().filter(|n| stream.iter().any(|r| r.remote.device == **n))
            {
                let topology = QccdTopology::named(name).expect("paper topology");
                layer("arch.device_build", 0, &mut || {
                    Device::build(topology.clone(), CompilerConfig::default().weights)
                        .distance_matrix();
                });
                devices += 1;
            }
            let mut outcome_bytes = 0usize;
            for (j, outcome) in pass.outcomes.iter().enumerate() {
                let Some(outcome) = outcome else { continue };
                let mut bytes = Vec::new();
                layer("codec.encode", j, &mut || {
                    let mut w = ByteWriter::new();
                    encode_outcome(&mut w, outcome);
                    bytes = w.into_bytes();
                });
                outcome_bytes += bytes.len();
                let mut decoded = None;
                layer("codec.decode", j, &mut || {
                    decoded = Some(decode_outcome(&mut ByteReader::new(&bytes)))
                });
                correct &= decoded
                    .and_then(|d| d.ok())
                    .is_some_and(|d| d.program().ops() == outcome.program().ops());
                let mut report = None;
                layer("sim.evaluate", j, &mut || report = Some(tracer.evaluate(outcome.program())));
                correct &= report == Some(outcome.report());
            }
            let n = stream.len() as f64;
            let self_ns = rec.end_pass();
            let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 * 1e-6;
            let class_ms = |hit: bool| {
                let l: Vec<f64> = stream
                    .iter()
                    .zip(&pass.latencies_ms)
                    .filter(|(r, _)| r.repeat_of.is_some() == hit)
                    .map(|(_, &l)| l)
                    .collect();
                l.iter().sum::<f64>() / l.len().max(1) as f64
            };

            per_pass.push(vec![
                ("scheduler.iterations", iterations as f64),
                ("scheduler.candidates", m.candidates_scored as f64),
                ("scheduler.fallback_gate_share", fallback as f64 / two_qubit.max(1) as f64),
                ("scheduler.heuristic_swaps", heuristic_swaps as f64),
                ("sim.evaluate_ms", ms("sim.evaluate")),
                ("arch.device_build_ms", ms("arch.device_build")),
                ("arch.devices", devices as f64),
                ("qasm.parse_ms", ms("qasm.parse")),
                ("qasm.parse_mb_per_s", source_bytes as f64 * 1e-6 / (ms("qasm.parse") * 1e-3)),
                ("qasm.source_kb", source_bytes as f64 / 1024.0),
                ("service.submit_ms", ms("service.submit") / n),
                ("service.wait_ms", ms("service.wait") / n),
                ("service.hit_ms", class_ms(true)),
                ("service.miss_ms", class_ms(false)),
                ("service.cache_hit_ratio", m.cache.hits as f64 / n),
                ("service.cache_entries", m.cache.entries as f64),
                ("codec.encode_ms", ms("codec.encode") / n),
                ("codec.decode_ms", ms("codec.decode") / n),
                ("codec.outcome_kb", outcome_bytes as f64 / 1024.0 / n),
                ("trace.overhead", pass.wall_s / untraced_wall_s - 1.0),
            ]);
        }
        if traced {
            per_pass.len() < 2 || run_started.elapsed().as_secs_f64() < seconds
        } else {
            passes % BLOCK_PASSES as u64 != 0 || another_block_fits(timed_s, rates.len(), seconds)
        }
    } {}
    let fingerprint = first.expect("at least one pass ran");
    correct &= verdict(check_against_earlier_runs(out_dir, "qasm_service", seed, &fingerprint));
    println!("fingerprint: {}", fingerprint.render());
    let metrics = if traced {
        median_per_name(&per_pass)
    } else {
        println!("blocks: {} of {BLOCK_PASSES} passes", rates.len());
        let mut m = vec![
            ("setup_s", median(&setups)),
            ("jobs_per_s", median(&rates)),
            ("latency_p50_ms", median(&p50s)),
            ("latency_p90_ms", median(&p90s)),
            ("peak_rss_mb", median(&rss)),
        ];
        m.extend(quality.metrics());
        m
    };
    let result = RunResult { correct: correct && failed == 0, attempted, failed, metrics };
    Ok((result, rec))
}
