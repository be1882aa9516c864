//! Load generator for `rhmd serve`: replays synthetic corpora as session
//! streams at a target offered load and records the service's latency and
//! degradation envelope into `BENCH_serve.json`.
//!
//! Default mode drives an in-process engine directly (no transport cost):
//!
//! 1. **Replay identity** — every held-out test program streamed as one
//!    session, at one shard and at all shards; verdicts must match
//!    `rhmd evaluate`'s batch path bit for bit.
//! 2. **Saturation probe** — an unpaced flood measures the sustained
//!    service rate in sessions/second.
//! 3. **Load sweep** — offered load at 0.5x / 1x / 2x saturation with
//!    bounded queues, recording p50/p99 verdict latency, abstention rate,
//!    and shed rate. Past saturation the service must degrade loudly
//!    (nonzero shed, every session accounted) with bounded p99 — never by
//!    losing verdicts.
//!
//! 4. **Chaos point** (`--chaos`) — the same replay, but every frame runs
//!    the hostile-wire gauntlet (malformed/truncated/oversized/nonfinite
//!    garbage, duplicates, stale re-deliveries), a deterministic subset of
//!    sessions poisons the scorer (panics and NaNs → quarantine), and
//!    shard workers are killed mid-stream and supervised back up. Gates:
//!    the engine must never fail, the four-term accounting identity must
//!    close, recovery latency is recorded, and every non-quarantined
//!    session's verdict must still match the batch path bit for bit.
//!
//! `--connect <socket>` instead streams NDJSON to a running
//! `rhmd serve --listen` daemon and records a single point, tolerating a
//! mid-stream server drain (SIGTERM smoke tests). With `--chaos` it also
//! mutates the wire stream and parks slow-loris / mid-frame-disconnect
//! attacker connections on the daemon.
//!
//! Run `RHMD_SCALE=tiny cargo run --release -p rhmd-bench --bin loadgen`
//! for a quick pass; see `--help`.

use rhmd_bench::{Experiment, Provenance};
use rhmd_core::hmd::Hmd;
use rhmd_core::RhmdError;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_ml::trainer::Algorithm;
use rhmd_runtime::durable::Durable;
use rhmd_serve::chaos::{EngineFaults, WireFaults};
use rhmd_serve::engine::{Engine, OutEvent};
use rhmd_serve::proto::{
    parse_request, validate_request, Response, StatsMsg, VerdictMsg,
};
use rhmd_serve::queue::Watermarks;
use rhmd_serve::server::{read_frame, Frame};
use rhmd_serve::ServeConfig;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: loadgen [options]

options:
  --out <path>        output report path (default: BENCH_serve.json)
  --connect <socket>  drive a running `rhmd serve --listen <socket>` daemon
                      over NDJSON instead of an in-process engine
  --sessions <n>      sessions per point in --connect mode (default: 32)
  --qps <f>           offered sessions/second in --connect mode (0 = unpaced)
  --chaos             run the chaos point: wire faults on every frame,
                      injected scorer poison, and mid-stream shard kills
                      (in --connect mode: wire faults + attacker conns)
  --chaos-seed <n>    deterministic seed for all chaos targeting (default: 7)
  --help              show this message

env fallbacks: RHMD_SCALE (tiny|small|standard|paper) selects the corpus.";

/// One measured operating point of the service.
#[derive(Debug, Clone, Serialize)]
struct Point {
    /// Human label (`"0.5x"`, `"1x"`, `"2x"`, `"saturation"`, `"connect"`).
    label: String,
    /// Offered load as a multiple of measured saturation (0 = unpaced).
    multiplier: f64,
    /// Offered load in sessions/second (0 = unpaced).
    offered_sps: f64,
    /// Serviced (decided + abstained) sessions/second over the point.
    achieved_sps: f64,
    /// Sessions offered to the service.
    offered: u64,
    /// Sessions that got a decision.
    decided: u64,
    /// Sessions that ended abstained.
    abstained: u64,
    /// Sessions degraded by load-shedding (explicit shed verdicts).
    shed: u64,
    /// Sessions isolated by the poison-pill boundary (abstain/quarantine).
    quarantined: u64,
    /// Median end-to-verdict latency in milliseconds.
    p50_ms: f64,
    /// 99th-percentile end-to-verdict latency in milliseconds.
    p99_ms: f64,
    /// Fraction of offered sessions that ended abstained.
    abstain_rate: f64,
    /// Fraction of offered sessions that were shed.
    shed_rate: f64,
    /// Offered sessions with no verdict line (must be 0: no silent drops).
    lost: u64,
    /// Whether `offered == decided + abstained + shed + quarantined` held.
    accounted: bool,
}

/// Outcome of the chaos point: the service under a hostile wire, a
/// poisoned scorer, and mid-stream shard kills. Every field here is a
/// release gate (see `run`), not just telemetry.
#[derive(Debug, Serialize)]
struct ChaosReport {
    /// Deterministic seed driving all fault targeting.
    seed: u64,
    /// Sessions offered through the hostile pipeline.
    sessions: u64,
    /// Sessions the poison-pill boundary isolated (must be > 0, or the
    /// injected scorer faults never fired and the point is vacuous).
    quarantined: u64,
    /// Wire frames rejected at the boundary (malformed / truncated /
    /// oversized / non-finite); must be > 0 for the same reason.
    rejected_frames: u64,
    /// Duplicate / stale re-deliveries repaired away by the sequence
    /// filter.
    stale_frames: u64,
    /// Shard workers killed mid-stream by the harness.
    shard_kills: u64,
    /// Supervisor restarts observed (>= shard_kills when recovery works).
    shard_restarts: u64,
    /// Median kill-to-serving shard recovery latency, milliseconds.
    recovery_p50_ms: f64,
    /// 99th-percentile shard recovery latency, milliseconds.
    recovery_p99_ms: f64,
    /// Whether the engine ever entered the failed state (must be false:
    /// the restart budget absorbed every kill).
    engine_failed: bool,
    /// Whether the four-term accounting identity closed at drain.
    accounted: bool,
    /// Whether every non-quarantined session's verdict matched the batch
    /// evaluation path bit for bit despite the chaos.
    nonquarantined_bit_identical: bool,
}

/// The full report written to `BENCH_serve.json`.
#[derive(Debug, Serialize)]
struct Report {
    /// The commit, corpus scale, engine shards and CPU behind the numbers.
    provenance: Provenance,
    /// Measured saturation throughput, sessions/second.
    saturation_sps: f64,
    /// Mean subwindow events per replayed session.
    events_per_session: f64,
    /// Whether streamed verdicts matched the batch evaluation path at
    /// every shard count tried (`null` in `--connect` mode).
    replay_bit_identical: Option<bool>,
    /// The chaos point's gates and recovery envelope (`--chaos` only).
    chaos: Option<ChaosReport>,
    /// The measured operating points.
    points: Vec<Point>,
}

struct Options {
    out: PathBuf,
    connect: Option<PathBuf>,
    sessions: usize,
    qps: f64,
    chaos: bool,
    chaos_seed: u64,
}

fn parse_args() -> Result<Options, RhmdError> {
    let mut opts = Options {
        out: PathBuf::from("BENCH_serve.json"),
        connect: None,
        sessions: 32,
        qps: 0.0,
        chaos: false,
        chaos_seed: 7,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(token) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .ok_or_else(|| RhmdError::config(format!("flag {flag} needs a value")))
        };
        match token.as_str() {
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--connect" => opts.connect = Some(PathBuf::from(value("--connect")?)),
            "--sessions" => {
                let v = value("--sessions")?;
                opts.sessions = v.parse().map_err(|_| {
                    RhmdError::parse("--sessions", format!("invalid value '{v}'"))
                })?;
            }
            "--qps" => {
                let v = value("--qps")?;
                opts.qps = v
                    .parse()
                    .map_err(|_| RhmdError::parse("--qps", format!("invalid value '{v}'")))?;
            }
            "--chaos" => opts.chaos = true,
            "--chaos-seed" => {
                let v = value("--chaos-seed")?;
                opts.chaos_seed = v.parse().map_err(|_| {
                    RhmdError::parse("--chaos-seed", format!("invalid value '{v}'"))
                })?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                return Err(RhmdError::config(format!(
                    "unknown argument '{other}' (try --help)"
                )))
            }
        }
    }
    Ok(opts)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), RhmdError> {
    let opts = parse_args()?;
    let exp = Experiment::load();
    let report = match &opts.connect {
        Some(sock) => connect_mode(&exp, sock, &opts)?,
        None => in_process(&exp, &opts)?,
    };
    let json = serde_json::to_string(&report)
        .map_err(|e| RhmdError::model(format!("serialize report: {e}")))?;
    Durable::from_env()?.write_atomic(&opts.out, json.as_bytes())?;
    eprintln!("[loadgen] report written to {}", opts.out.display());
    for p in &report.points {
        eprintln!(
            "[loadgen] {:>10}: offered {} decided {} abstained {} shed {} \
             quarantined {} p50 {:.2}ms p99 {:.2}ms lost {}",
            p.label,
            p.offered,
            p.decided,
            p.abstained,
            p.shed,
            p.quarantined,
            p.p50_ms,
            p.p99_ms,
            p.lost
        );
    }
    if report.points.iter().any(|p| p.lost > 0 || !p.accounted) {
        return Err(RhmdError::model(
            "verdicts were lost or unaccounted under load — the no-silent-drops \
             contract is broken",
        ));
    }
    if report.replay_bit_identical == Some(false) {
        return Err(RhmdError::model(
            "streamed replay diverged from the batch evaluation path",
        ));
    }
    if let Some(chaos) = &report.chaos {
        eprintln!(
            "[loadgen] chaos: quarantined {} rejected_frames {} stale {} \
             kills {} restarts {} recovery p99 {:.2}ms failed {} identical {}",
            chaos.quarantined,
            chaos.rejected_frames,
            chaos.stale_frames,
            chaos.shard_kills,
            chaos.shard_restarts,
            chaos.recovery_p99_ms,
            chaos.engine_failed,
            chaos.nonquarantined_bit_identical
        );
        if chaos.engine_failed {
            return Err(RhmdError::model(
                "chaos: the engine entered the failed state — the restart \
                 budget did not absorb the injected shard kills",
            ));
        }
        if !chaos.accounted {
            return Err(RhmdError::model(
                "chaos: the four-term accounting identity did not close",
            ));
        }
        if !chaos.nonquarantined_bit_identical {
            return Err(RhmdError::model(
                "chaos: a non-quarantined session's verdict diverged from the \
                 batch evaluation path",
            ));
        }
        if chaos.quarantined == 0 || chaos.rejected_frames == 0 || chaos.stale_frames == 0 {
            return Err(RhmdError::model(
                "chaos: a fault plane never fired (quarantine, rejection, or \
                 re-delivery count is zero) — the point is vacuous",
            ));
        }
        if chaos.shard_kills > 0 && chaos.shard_restarts < chaos.shard_kills {
            return Err(RhmdError::model(
                "chaos: the supervisor restarted fewer shards than were killed",
            ));
        }
    }
    Ok(())
}

/// Trains the served detector: the standard LR / architectural baseline at
/// a 5k period (small, fast, and deterministic at this scale).
fn train(exp: &Experiment) -> Hmd {
    Hmd::train(
        Algorithm::Lr,
        FeatureSpec::new(FeatureKind::Architectural, 5_000, exp.opcodes.clone()),
        &exp.trainer,
        &exp.traced,
        &exp.splits.victim_train,
    )
}

fn shards() -> usize {
    std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
}

/// Mean subwindow count over the replayed (test-split) sessions.
fn mean_events(exp: &Experiment) -> f64 {
    let test = &exp.splits.attacker_test;
    let total: usize = test.iter().map(|&i| exp.traced.subwindows(i).len()).sum();
    total as f64 / test.len().max(1) as f64
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

fn point_from(
    label: &str,
    multiplier: f64,
    offered_sps: f64,
    stats: &StatsMsg,
    verdict_lines: u64,
    mut latencies_ms: Vec<f64>,
    elapsed: Duration,
) -> Point {
    latencies_ms.sort_by(f64::total_cmp);
    let offered = stats.offered_sessions;
    let serviced = stats.decided + stats.abstained;
    Point {
        label: label.to_owned(),
        multiplier,
        offered_sps,
        achieved_sps: serviced as f64 / elapsed.as_secs_f64().max(1e-9),
        offered,
        decided: stats.decided,
        abstained: stats.abstained,
        shed: stats.shed_sessions,
        quarantined: stats.quarantined,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        abstain_rate: stats.abstained as f64 / offered.max(1) as f64,
        shed_rate: stats.shed_sessions as f64 / offered.max(1) as f64,
        lost: offered.saturating_sub(verdict_lines),
        accounted: stats.accounted(),
    }
}

// ---------------------------------------------------------------------------
// In-process mode
// ---------------------------------------------------------------------------

/// Shared collector state: verdict lines and end-to-verdict latencies.
#[derive(Default)]
struct Collected {
    verdicts: Mutex<Vec<VerdictMsg>>,
    latencies_ms: Mutex<Vec<f64>>,
    /// `session id -> End submission time`, filled by senders.
    ends: Mutex<std::collections::HashMap<String, Instant>>,
}

impl Collected {
    fn on_verdict(&self, v: VerdictMsg) {
        let end = self.ends.lock().unwrap().remove(&v.session);
        if let Some(at) = end {
            self.latencies_ms
                .lock()
                .unwrap()
                .push(at.elapsed().as_secs_f64() * 1e3);
        }
        self.verdicts.lock().unwrap().push(v);
    }

    fn verdict_count(&self) -> usize {
        self.verdicts.lock().unwrap().len()
    }
}

/// Pops the engine's output until `Closed`, feeding verdicts into `col`.
fn collect(out: &rhmd_serve::queue::BoundedQueue<OutEvent>, col: &Collected) {
    while let Some(ev) = out.pop() {
        match ev {
            OutEvent::Response {
                response: Response::Verdict(v),
                ..
            } => col.on_verdict(v),
            OutEvent::Response { .. } => {}
            OutEvent::Closed => break,
        }
    }
}

/// Streams session `k` (a replay of program `prog`) into the engine.
fn send_session(engine: &Engine, exp: &Experiment, col: &Collected, k: usize, prog: usize) {
    let tenant = if k.is_multiple_of(2) { "t0" } else { "t1" };
    let session = format!("s{k}");
    for (seq, sub) in exp.traced.subwindows(prog).iter().enumerate() {
        engine.submit_event(0, tenant, &session, seq as u64, Box::new(sub.clone()), None);
    }
    col.ends
        .lock()
        .unwrap()
        .insert(session.clone(), Instant::now());
    engine.submit_end(0, tenant, &session);
}

/// Runs one operating point: `sessions` replayed sessions at `offered_sps`
/// sessions/second (0 = unpaced) across `senders` threads, against an
/// engine with the given ingest watermarks.
#[allow(clippy::too_many_arguments)]
fn run_point(
    exp: &Experiment,
    hmd: &Hmd,
    n_shards: usize,
    queue: Watermarks,
    sessions: usize,
    offered_sps: f64,
    senders: usize,
    label: &str,
    multiplier: f64,
) -> Result<(Point, Vec<VerdictMsg>), RhmdError> {
    let config = ServeConfig {
        shards: n_shards,
        queue,
        output: Watermarks {
            capacity: 1 << 16,
            high: 1 << 16,
            low: 0,
        },
        session_deadline: None,
        tenant_deadline: None,
        ..ServeConfig::default()
    };
    // Explicit default faults: a stray RHMD_SERVE_FAULTS in the
    // environment must never poison a clean measurement point.
    let engine = Engine::start_with_faults(hmd.clone(), config, EngineFaults::default())?;
    let out = engine.output();
    let col = Collected::default();
    let test = &exp.splits.attacker_test;
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let stats = std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(&out, &col));
        let mut handles = Vec::new();
        for _ in 0..senders {
            handles.push(scope.spawn(|| {
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if k >= sessions {
                        break;
                    }
                    if offered_sps > 0.0 {
                        let target = Duration::from_secs_f64(k as f64 / offered_sps);
                        while t0.elapsed() < target {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                    send_session(&engine, exp, &col, k, test[k % test.len()]);
                }
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        let stats = engine.drain();
        let _ = collector.join();
        stats
    });
    let elapsed = t0.elapsed();
    let point = point_from(
        label,
        multiplier,
        offered_sps,
        &stats,
        col.verdict_count() as u64,
        std::mem::take(&mut col.latencies_ms.lock().unwrap()),
        elapsed,
    );
    Ok((point, col.verdicts.into_inner().unwrap()))
}

/// Replays every test program as one session at `n_shards` shards (one
/// session in flight at a time, so nothing sheds) and checks each verdict
/// against the batch evaluation path.
fn replay_identity(exp: &Experiment, hmd: &Hmd, n_shards: usize) -> Result<bool, RhmdError> {
    let per_session = mean_events(exp).ceil() as usize;
    let config = ServeConfig {
        shards: n_shards,
        queue: Watermarks {
            capacity: 4 * per_session + 256,
            high: 4 * per_session + 256,
            low: 0,
        },
        session_deadline: None,
        tenant_deadline: None,
        ..ServeConfig::default()
    };
    let engine = Engine::start_with_faults(hmd.clone(), config, EngineFaults::default())?;
    let out = engine.output();
    let col = Collected::default();
    let test = exp.splits.attacker_test.clone();
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(&out, &col));
        for (k, &prog) in test.iter().enumerate() {
            send_session(&engine, exp, &col, k, prog);
            // One session in flight keeps the ingest queue under its
            // watermark, so the identity pass never sheds.
            while col.verdict_count() <= k {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let stats = engine.drain();
        let _ = collector.join();
        assert!(stats.accounted());
    });
    let verdicts = col.verdicts.into_inner().unwrap();
    let mut identical = verdicts.len() == test.len();
    for v in &verdicts {
        let k: usize = v.session[1..].parse().expect("session ids are s<k>");
        let expected = hmd.verdict(exp.traced.subwindows(test[k]));
        let want = if expected.total == 0 {
            "abstain" // zero scorable windows: the service abstains loudly
        } else if expected.is_malware() {
            "malware"
        } else {
            "benign"
        };
        if v.verdict != want || v.voted != expected.total || v.flag_rate != expected.flag_rate() {
            eprintln!(
                "[loadgen] DIVERGENCE at {} shards, session {}: streamed {} \
                 (voted {}, flag_rate {}), batch wants {} (voted {}, flag_rate {})",
                n_shards,
                v.session,
                v.verdict,
                v.voted,
                v.flag_rate,
                want,
                expected.total,
                expected.flag_rate()
            );
            identical = false;
        }
    }
    Ok(identical)
}

/// What the batch path says about a replayed program, reduced to the
/// fields a verdict line carries — the bit-identity oracle.
fn batch_expectation(hmd: &Hmd, exp: &Experiment, prog: usize) -> (String, usize, f64) {
    let expected = hmd.verdict(exp.traced.subwindows(prog));
    let want = if expected.total == 0 {
        "abstain"
    } else if expected.is_malware() {
        "malware"
    } else {
        "benign"
    };
    (want.to_owned(), expected.total, expected.flag_rate())
}

/// The chaos point: every test program replayed through the full hostile
/// pipeline — frames expanded by the wire-fault plane, then pushed through
/// the bounded frame reader, parser, and validator exactly as a socket
/// client's bytes would be — against an engine with injected scorer poison,
/// while shard workers are killed mid-session and supervised back up.
fn chaos_point(
    exp: &Experiment,
    hmd: &Hmd,
    n_shards: usize,
    seed: u64,
) -> Result<(Point, ChaosReport), RhmdError> {
    use rhmd_serve::proto::Request;

    let wire = WireFaults::standard(seed);
    let engine_faults = EngineFaults {
        score_panic: 0.2,
        score_nan: 0.15,
        seed,
    };
    let per_session = mean_events(exp).ceil() as usize;
    let config = ServeConfig {
        shards: n_shards,
        queue: Watermarks {
            capacity: 4 * per_session + 256,
            high: 4 * per_session + 256,
            low: 0,
        },
        output: Watermarks {
            capacity: 1 << 16,
            high: 1 << 16,
            low: 0,
        },
        session_deadline: None,
        tenant_deadline: None,
        ..ServeConfig::default()
    };
    let engine = Engine::start_with_faults(hmd.clone(), config, engine_faults.clone())?;
    let out = engine.output();
    let col = Collected::default();
    let test = exp.splits.attacker_test.clone();
    // Kill a shard during roughly every third session, while that session
    // is mid-stream, so supervised restarts must restore live state.
    let kill_every = (test.len() / 3).max(2);
    let mut kills = 0u64;
    let mut rejected_frames = 0u64;
    let t0 = Instant::now();
    let stats = std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(&out, &col));
        for (k, &prog) in test.iter().enumerate() {
            let session = format!("s{k}");
            // Render the session exactly as a client would put it on the
            // wire, with the fault plane expanding each frame.
            let mut bytes: Vec<u8> = Vec::new();
            let mut first_frame = String::new();
            let subs = exp.traced.subwindows(prog);
            for (seq, sub) in subs.iter().enumerate() {
                let frame = serde_json::to_string(&Request::Event {
                    tenant: "t0".into(),
                    session: session.clone(),
                    seq: seq as u64,
                    window: Box::new(sub.clone()),
                    deadline_ms: None,
                })
                .expect("requests serialize");
                if seq == 0 {
                    first_frame = frame.clone();
                }
                for line in wire.mutate(&session, seq as u64, &frame, &first_frame) {
                    bytes.extend_from_slice(line.as_bytes());
                    bytes.push(b'\n');
                }
            }
            // Feed the hostile bytes through the real ingest pipeline.
            let mut input = std::io::Cursor::new(bytes);
            let mut partial = Vec::new();
            let mut submitted = 0usize;
            loop {
                match read_frame(&mut input, &mut partial) {
                    Frame::Line(line) => {
                        match parse_request(&line).and_then(|r| {
                            validate_request(&r)?;
                            Ok(r)
                        }) {
                            Ok(request) => {
                                engine.submit(0, request);
                                submitted += 1;
                            }
                            Err(_) => rejected_frames += 1,
                        }
                    }
                    Frame::Oversized(_) => rejected_frames += 1,
                    Frame::Idle | Frame::Stalled => unreachable!("cursors never block"),
                    Frame::Eof { .. } => break,
                }
                // Mid-session shard kill: live assemblies must survive the
                // restart via snapshots (or the worker's dying flush).
                if k % kill_every == 1
                    && submitted == subs.len() / 2
                    && submitted > 0
                    && engine.kill_shard(k % n_shards)
                {
                    kills += 1;
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while (engine.recoveries_ns().len() as u64) < kills
                        && !engine.failed()
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            col.ends
                .lock()
                .unwrap()
                .insert(session.clone(), Instant::now());
            engine.submit_end(0, "t0", &session);
            // One session in flight at a time: the chaos point probes
            // fault handling, not throughput, and must never shed.
            let deadline = Instant::now() + Duration::from_secs(60);
            while col.verdict_count() <= k && !engine.failed() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let stats = engine.drain();
        let _ = collector.join();
        stats
    });
    let elapsed = t0.elapsed();

    // Bit-identity gate: quarantine-targeted sessions must carry the
    // explicit quarantine abstention; everyone else must match the batch
    // path exactly, chaos or no chaos.
    let verdicts = col.verdicts.lock().unwrap().clone();
    let mut identical = verdicts.len() == test.len();
    for v in &verdicts {
        let k: usize = v.session[1..].parse().expect("session ids are s<k>");
        if engine_faults.quarantines("t0", &v.session) {
            if v.verdict != "abstain" || v.reason.as_deref() != Some("quarantine") {
                eprintln!(
                    "[loadgen] CHAOS: poisoned session {} ended '{}' ({:?}), \
                     expected abstain/quarantine",
                    v.session, v.verdict, v.reason
                );
                identical = false;
            }
            continue;
        }
        let (want, voted, flag_rate) = batch_expectation(hmd, exp, test[k]);
        if v.verdict != want || v.voted != voted || v.flag_rate != flag_rate {
            eprintln!(
                "[loadgen] CHAOS DIVERGENCE session {}: streamed {} (voted {}, \
                 flag_rate {}), batch wants {} (voted {voted}, flag_rate {flag_rate})",
                v.session, v.verdict, v.voted, v.flag_rate, want
            );
            identical = false;
        }
    }

    let mut recovery_ms: Vec<f64> = engine
        .recoveries_ns()
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    recovery_ms.sort_by(f64::total_cmp);
    let chaos = ChaosReport {
        seed,
        sessions: stats.offered_sessions,
        quarantined: stats.quarantined,
        rejected_frames,
        stale_frames: stats.stale_frames,
        shard_kills: kills,
        shard_restarts: stats.shard_restarts,
        recovery_p50_ms: percentile(&recovery_ms, 0.50),
        recovery_p99_ms: percentile(&recovery_ms, 0.99),
        engine_failed: engine.failed(),
        accounted: stats.accounted(),
        nonquarantined_bit_identical: identical,
    };
    let point = point_from(
        "chaos",
        0.0,
        0.0,
        &stats,
        col.verdict_count() as u64,
        std::mem::take(&mut col.latencies_ms.lock().unwrap()),
        elapsed,
    );
    Ok((point, chaos))
}

fn in_process(exp: &Experiment, opts: &Options) -> Result<Report, RhmdError> {
    let hmd = train(exp);
    let per_session = mean_events(exp);
    let n_shards = shards();

    eprintln!("[loadgen] replay identity at 1 and {n_shards} shards ...");
    let identical = replay_identity(exp, &hmd, 1)? && replay_identity(exp, &hmd, n_shards)?;

    eprintln!("[loadgen] probing saturation (unpaced flood) ...");
    let flood = Watermarks {
        capacity: 1 << 15,
        high: (1 << 15) * 3 / 4,
        low: (1 << 15) / 4,
    };
    let sat_sessions = (exp.splits.attacker_test.len() * 8).clamp(64, 512);
    let (sat, _) = run_point(
        exp,
        &hmd,
        n_shards,
        flood,
        sat_sessions,
        0.0,
        4,
        "saturation",
        0.0,
    )?;
    let saturation_sps = sat.achieved_sps.max(1.0);
    eprintln!("[loadgen] saturation ~{saturation_sps:.1} sessions/s");

    // Sweep queues sized to absorb sender bursts (whole sessions) without
    // shedding below saturation, while staying bounded enough that 2x
    // offered load visibly sheds.
    let cap = ((8.0 * per_session) as usize).clamp(512, 1 << 15);
    let sweep_queue = Watermarks {
        capacity: cap,
        high: cap * 3 / 4,
        low: cap / 4,
    };
    let mut points = vec![sat];
    for multiplier in [0.5, 1.0, 2.0] {
        let sps = multiplier * saturation_sps;
        let sessions = ((sps * 3.0) as usize).clamp(24, 512);
        eprintln!("[loadgen] sweep {multiplier}x saturation ({sps:.1} sessions/s) ...");
        let (point, _) = run_point(
            exp,
            &hmd,
            n_shards,
            sweep_queue,
            sessions,
            sps,
            4,
            &format!("{multiplier}x"),
            multiplier,
        )?;
        points.push(point);
    }

    let chaos = if opts.chaos {
        eprintln!(
            "[loadgen] chaos point (seed {}): hostile wire + scorer poison + shard kills ...",
            opts.chaos_seed
        );
        let (point, chaos) = chaos_point(exp, &hmd, n_shards, opts.chaos_seed)?;
        points.push(point);
        Some(chaos)
    } else {
        None
    };

    Ok(Report {
        provenance: Provenance::of(&exp.config, n_shards),
        saturation_sps,
        events_per_session: per_session,
        replay_bit_identical: Some(identical),
        chaos,
        points,
    })
}

// ---------------------------------------------------------------------------
// Connect mode (NDJSON over a Unix socket)
// ---------------------------------------------------------------------------

#[cfg(unix)]
fn connect_mode(
    exp: &Experiment,
    sock: &std::path::Path,
    opts: &Options,
) -> Result<Report, RhmdError> {
    use rhmd_serve::proto::Request;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let (sessions, qps) = (opts.sessions, opts.qps);
    let wire = opts.chaos.then(|| WireFaults::standard(opts.chaos_seed));

    // Hostile co-tenants: a mid-frame disconnect and a slow-loris holding
    // half a frame open. The daemon must keep serving the healthy client.
    let mut attacker_loris: Option<UnixStream> = None;
    if opts.chaos {
        if let Ok(mut s) = UnixStream::connect(sock) {
            let _ = s.write_all(br#"{"Event":{"tenant":"t0","session":"vanish","#);
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        if let Ok(mut s) = UnixStream::connect(sock) {
            let _ = s.write_all(br#"{"Event":{"tenant":"t0","session":"loris","#);
            let _ = s.flush();
            attacker_loris = Some(s); // held open, never finished
        }
    }

    let stream = UnixStream::connect(sock)
        .map_err(|e| RhmdError::io(sock.display().to_string(), e.to_string()))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| RhmdError::io(sock.display().to_string(), e.to_string()))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| RhmdError::io(sock.display().to_string(), e.to_string()))?;

    let col = Collected::default();
    let test = &exp.splits.attacker_test;
    let t0 = Instant::now();
    let mut sent = 0u64;
    let mut server_stats: Option<StatsMsg> = None;

    std::thread::scope(|scope| -> Result<(), RhmdError> {
        let reader = scope.spawn(|| -> Option<StatsMsg> {
            let mut last: Option<StatsMsg> = None;
            for line in BufReader::new(&stream).lines() {
                let Ok(line) = line else { break };
                match serde_json::from_str::<Response>(&line) {
                    Ok(Response::Verdict(v)) => col.on_verdict(v),
                    Ok(Response::Stats(s)) => last = Some(s),
                    Ok(Response::Drained(s)) => return Some(s),
                    _ => {}
                }
            }
            last
        });
        'send: for k in 0..sessions {
            if qps > 0.0 {
                let target = Duration::from_secs_f64(k as f64 / qps);
                while t0.elapsed() < target {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            let tenant = if k.is_multiple_of(2) { "t0" } else { "t1" };
            let session = format!("s{k}");
            let mut first_frame = String::new();
            for (seq, sub) in exp.traced.subwindows(test[k % test.len()]).iter().enumerate() {
                let req = Request::Event {
                    tenant: tenant.to_owned(),
                    session: session.clone(),
                    seq: seq as u64,
                    window: Box::new(sub.clone()),
                    deadline_ms: None,
                };
                let frame = serde_json::to_string(&req).expect("requests serialize");
                if seq == 0 {
                    first_frame = frame.clone();
                }
                let lines = match &wire {
                    Some(w) => w.mutate(&session, seq as u64, &frame, &first_frame),
                    None => vec![frame],
                };
                // A write error means the server went away mid-stream
                // (e.g. a SIGTERM drain): stop offering and settle with
                // whatever verdicts the drain flushed.
                for line in lines {
                    if writeln!(writer, "{line}").is_err() {
                        break 'send;
                    }
                }
            }
            col.ends
                .lock()
                .unwrap()
                .insert(session.clone(), Instant::now());
            if writeln!(
                writer,
                "{}",
                serde_json::to_string(&Request::End {
                    tenant: tenant.to_owned(),
                    session,
                })
                .expect("requests serialize")
            )
            .is_err()
            {
                break 'send;
            }
            sent += 1;
        }
        let _ = writeln!(
            writer,
            "{}",
            serde_json::to_string(&Request::Stats {}).expect("requests serialize")
        );
        let _ = writer.flush();
        // Give the reader a beat to drain replies, then close our write
        // half so a lines() iterator parked on the socket unblocks.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline && (col.verdict_count() as u64) < sent {
            std::thread::sleep(Duration::from_millis(20));
        }
        // Second stats barrier: counts are bumped before a verdict line is
        // emitted, so a snapshot taken after every verdict arrived is
        // consistent — the first one can be stale by an in-flight finalize.
        let _ = writeln!(
            writer,
            "{}",
            serde_json::to_string(&Request::Stats {}).expect("requests serialize")
        );
        let _ = writer.flush();
        std::thread::sleep(Duration::from_millis(50));
        let _ = stream.shutdown(std::net::Shutdown::Write);
        server_stats = reader.join().unwrap_or(None);
        Ok(())
    })?;

    let elapsed = t0.elapsed();
    let stats = server_stats.unwrap_or_else(|| {
        // The server never answered the stats request (killed hard);
        // account from the client's own view so the report stays usable.
        let decided = col
            .verdicts
            .lock()
            .unwrap()
            .iter()
            .filter(|v| v.is_decided())
            .count() as u64;
        let total = col.verdict_count() as u64;
        StatsMsg {
            offered_sessions: total,
            decided,
            abstained: total - decided,
            ..StatsMsg::default()
        }
    });
    drop(attacker_loris); // released only after the healthy run completed
    let point = point_from(
        "connect",
        0.0,
        qps,
        &stats,
        col.verdict_count() as u64,
        std::mem::take(&mut col.latencies_ms.lock().unwrap()),
        elapsed,
    );
    Ok(Report {
        // The daemon's shards did the work, in another process.
        provenance: Provenance::of(&exp.config, 0),
        saturation_sps: 0.0,
        events_per_session: mean_events(exp),
        replay_bit_identical: None,
        chaos: None,
        points: vec![point],
    })
}

#[cfg(not(unix))]
fn connect_mode(
    _exp: &Experiment,
    _sock: &std::path::Path,
    _opts: &Options,
) -> Result<Report, RhmdError> {
    Err(RhmdError::config("--connect is only supported on Unix"))
}
