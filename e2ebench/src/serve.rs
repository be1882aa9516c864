//! The serve phase: a detector deployed in an in-process `rhmd_serve`
//! engine (one shard) and driven with replayed test-split programs, one
//! program per session.
//!
//! Each round runs three phases, each against a fresh engine:
//!
//! * a **closed-loop flood** — [`FLOOD_CLIENTS`] clients, each sending its
//!   next session only after the previous one's verdict, which measures
//!   the saturation rate without shedding;
//! * two **open-loop** phases with Poisson arrivals at the fixed absolute
//!   rates [`LOW_SPS`] and [`HIGH_SPS`]. Latency runs from each session's
//!   *scheduled* arrival to its verdict, so a stalled generator or engine
//!   charges the wait to every session queued behind it; the first
//!   [`WARMUP`] sessions of a phase are discarded, and the generator's lag
//!   behind schedule is reported.
//!
//! Every event is boxed before a phase's clock starts, and every decided
//! verdict is checked against the batch `Hmd` verdict for its program.

use crate::setup::Setup;
use crate::stats::{median, percentile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rhmd_core::hmd::Hmd;
use rhmd_features::window::{aggregate, RawWindow};
use rhmd_serve::chaos::EngineFaults;
use rhmd_serve::engine::{Engine, OutEvent};
use rhmd_serve::proto::{Response, StatsMsg, VerdictMsg};
use rhmd_serve::queue::Watermarks;
use rhmd_serve::ServeConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Open-loop low rate, sessions per second: about a third of the
/// closed-loop flood rate (~5200 sessions/s, median over seeds on a
/// 2-vCPU x86-64 VM) when the benchmark was defined. The rates are fixed
/// in absolute terms so a faster engine shows lower latency at the same
/// offered load.
pub const LOW_SPS: f64 = 1700.0;
/// Open-loop high rate, sessions per second: about two thirds of it.
pub const HIGH_SPS: f64 = 3400.0;
/// Concurrent clients in the closed-loop flood.
pub const FLOOD_CLIENTS: usize = 32;
/// Subwindow events per flood phase: the flood replays sessions until this
/// many events are queued, so its work does not depend on how long the
/// seed's programs run.
pub const FLOOD_EVENTS: usize = 240_000;
/// Sessions per open-loop phase, warm-up included.
pub const OPEN_SESSIONS: usize = 1200;
/// Leading sessions of each open-loop phase left out of the latencies.
pub const WARMUP: usize = 150;

/// What the batch path says about one program: verdict, voting windows and
/// the bits of the flag rate — the fields a verdict line carries.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    verdict: &'static str,
    voted: usize,
    flag_rate_bits: u64,
}

/// A deployed detector and the programs replayed against it.
pub struct Deployment<'a> {
    hmd: &'a Hmd,
    setup: &'a Setup,
    programs: Vec<usize>,
    expected: Vec<Expected>,
}

impl<'a> Deployment<'a> {
    /// Deploys `hmd`, replaying the attacker-test split of `setup`.
    pub fn new(hmd: &'a Hmd, setup: &'a Setup) -> Deployment<'a> {
        let programs = setup.splits.attacker_test.clone();
        let expected = programs
            .iter()
            .map(|&p| {
                let v = hmd.verdict(setup.traced.subwindows(p));
                Expected {
                    verdict: if v.total == 0 {
                        "abstain"
                    } else if v.is_malware() {
                        "malware"
                    } else {
                        "benign"
                    },
                    voted: v.total,
                    flag_rate_bits: v.flag_rate().to_bits(),
                }
            })
            .collect();
        Deployment {
            hmd,
            setup,
            programs,
            expected,
        }
    }

    /// Batch scoring rate of the deployed model: every replayed program's
    /// collection windows through `Hmd::classify_windows`, timed five
    /// times. Returns `(rows scored, median rows per second)`.
    pub fn score_rate(&self) -> (usize, f64) {
        const REPS: usize = 5;
        let windows: Vec<RawWindow> = self
            .programs
            .iter()
            .flat_map(|&p| aggregate(self.setup.traced.subwindows(p), self.hmd.spec().period))
            .collect();
        // Each repetition scores the set enough times to cover ~100k rows.
        let passes = 100_000usize.div_ceil(windows.len().max(1));
        let rates: Vec<f64> = (0..REPS)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..passes {
                    std::hint::black_box(self.hmd.classify_windows(&windows));
                }
                (passes * windows.len()) as f64 / start.elapsed().as_secs_f64().max(1e-9)
            })
            .collect();
        (passes * windows.len() * REPS, median(&rates))
    }
}

/// Everything one phase produced.
#[derive(Debug, Default)]
struct Phase {
    sessions: usize,
    elapsed_s: f64,
    stats: StatsMsg,
    /// Measured (post-warm-up) latencies, ms, ascending.
    latencies_ms: Vec<f64>,
    /// Generator lateness per measured session, ms.
    lag_ms: Vec<f64>,
    /// Duration of each `submit_event`/`submit_end` call, ns (when timed).
    submit_ns: Vec<u32>,
    drain_s: f64,
    events: u64,
    shed: u64,
    quarantined: u64,
    lost: u64,
    mismatched: u64,
}

/// Totals over every serve round of a run.
#[derive(Debug, Default)]
pub struct ServeTotals {
    /// Rounds completed.
    pub rounds: usize,
    /// Flood throughput per round, sessions per second.
    pub flood_sps: Vec<f64>,
    /// Flood wall clock per round, seconds.
    pub flood_s: Vec<f64>,
    /// Open-loop low-rate p50 / p99 per round, ms.
    pub low_p50: Vec<f64>,
    /// See `low_p50`.
    pub low_p99: Vec<f64>,
    /// Open-loop high-rate p50 / p99 per round, ms.
    pub high_p50: Vec<f64>,
    /// See `high_p50`.
    pub high_p99: Vec<f64>,
    /// Sessions offered over all phases.
    pub sessions: u64,
    /// Open-loop sessions shed, lost or quarantined, plus any session in
    /// any phase whose verdict failed its check or never arrived.
    pub failed: u64,
    /// Phases whose accounting identity did not close, or whose verdicts
    /// diverged from the batch path.
    pub check_failures: Vec<String>,
    /// Engine counters summed over phases.
    pub shed_sessions: u64,
    /// See `shed_sessions`.
    pub shed_events: u64,
    /// See `shed_sessions`.
    pub abstained: u64,
    /// Per-phase `Engine::drain` wall clock, seconds.
    pub drain_s: Vec<f64>,
    /// Submit-call durations over all phases, ns.
    pub submit_ns: Vec<u32>,
    /// Generator lateness over all open-loop sessions, ms.
    pub lag_ms: Vec<f64>,
    /// Subwindow events submitted.
    pub events: u64,
}

fn engine_config() -> ServeConfig {
    // Deep enough to absorb a ~0.5 s host stall at the high rate without
    // shedding; shedding then signals a real capacity problem.
    let queue = 1 << 17;
    ServeConfig {
        shards: 1,
        queue: Watermarks {
            capacity: queue,
            high: queue * 3 / 4,
            low: queue / 4,
        },
        output: Watermarks {
            capacity: 1 << 16,
            high: 1 << 16,
            low: 0,
        },
        session_deadline: None,
        tenant_deadline: None,
        ..ServeConfig::default()
    }
}

/// Runs `call`, appending its duration in ns to `sink` when one is given.
fn timed(sink: Option<&mut Vec<u32>>, call: impl FnOnce()) {
    match sink {
        Some(sink) => {
            let start = Instant::now();
            call();
            sink.push(start.elapsed().as_nanos() as u32);
        }
        None => call(),
    }
}

/// Blocks until `due`: sleeps while far from it, then yields.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

impl Deployment<'_> {
    /// Runs one phase: `order[k]` indexes the program replayed as session
    /// `k`; `arrivals` holds open-loop offsets in seconds (closed loop when
    /// `None`).
    fn phase(&self, order: &[usize], arrivals: Option<&[f64]>, time_submits: bool) -> Phase {
        let n = order.len();
        let traced = &self.setup.traced;
        // Pre-box every event and name every session before the clock runs.
        let boxed: Vec<Vec<Box<RawWindow>>> = order
            .iter()
            .map(|&i| {
                traced
                    .subwindows(self.programs[i])
                    .iter()
                    .map(|w| Box::new(w.clone()))
                    .collect()
            })
            .collect();
        let names: Vec<String> = (0..n).map(|k| format!("s{k}")).collect();
        let events: u64 = boxed.iter().map(|b| b.len() as u64).sum();
        let engine =
            Engine::start_with_faults(self.hmd.clone(), engine_config(), EngineFaults::default())
                .expect("static engine config is valid");
        let out = engine.output();
        let completed = AtomicUsize::new(0);
        let mut phase = Phase {
            sessions: n,
            ..Phase::default()
        };
        let origin = Instant::now() + Duration::from_millis(2);
        let mut due = vec![origin; n];
        let (verdicts, stats) = std::thread::scope(|scope| {
            let collector = scope.spawn(|| {
                let mut got: Vec<(usize, Instant, VerdictMsg)> = Vec::with_capacity(n);
                while let Some(ev) = out.pop() {
                    match ev {
                        OutEvent::Response {
                            response: Response::Verdict(v),
                            ..
                        } => {
                            let at = Instant::now();
                            let k = v.session[1..].parse().unwrap_or(usize::MAX);
                            got.push((k, at, v));
                            completed.fetch_add(1, Ordering::Release);
                        }
                        OutEvent::Response { .. } => {}
                        OutEvent::Closed => break,
                    }
                }
                got
            });
            wait_until(origin);
            for (k, session) in boxed.into_iter().enumerate() {
                match arrivals {
                    None => {
                        while k - completed.load(Ordering::Acquire) >= FLOOD_CLIENTS {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                        due[k] = Instant::now();
                    }
                    Some(offsets) => {
                        due[k] = origin + Duration::from_secs_f64(offsets[k]);
                        wait_until(due[k]);
                        if k >= WARMUP {
                            phase.lag_ms.push(due[k].elapsed().as_secs_f64() * 1e3);
                        }
                    }
                }
                let tenant = if k % 2 == 0 { "t0" } else { "t1" };
                let mut submit_ns = time_submits.then_some(&mut phase.submit_ns);
                for (seq, window) in session.into_iter().enumerate() {
                    timed(submit_ns.as_deref_mut(), || {
                        engine.submit_event(0, tenant, &names[k], seq as u64, window, None);
                    });
                }
                timed(submit_ns, || engine.submit_end(0, tenant, &names[k]));
            }
            // Every session has ended; wait for its verdict before draining,
            // so drain only stops the workers.
            while completed.load(Ordering::Acquire) < n {
                std::thread::sleep(Duration::from_micros(50));
            }
            phase.elapsed_s = origin.elapsed().as_secs_f64();
            let start = Instant::now();
            let stats = engine.drain();
            phase.drain_s = start.elapsed().as_secs_f64();
            (collector.join().expect("collector thread"), stats)
        });
        phase.stats = stats;
        phase.events = events;
        self.judge(&mut phase, order, &due, &verdicts, arrivals.is_some());
        phase
    }

    /// Checks every verdict against the batch path and computes latencies.
    fn judge(
        &self,
        phase: &mut Phase,
        order: &[usize],
        due: &[Instant],
        verdicts: &[(usize, Instant, VerdictMsg)],
        open_loop: bool,
    ) {
        let n = order.len();
        let mut seen = vec![false; n];
        let mut latencies = Vec::with_capacity(n);
        let mut missed = 0usize;
        for (k, at, v) in verdicts {
            let Some(slot) = seen.get_mut(*k) else {
                phase.mismatched += 1;
                continue;
            };
            if std::mem::replace(slot, true) {
                phase.mismatched += 1; // a second verdict for one session
                continue;
            }
            let want = &self.expected[order[*k]];
            let ok = match (v.verdict.as_str(), v.reason.as_deref()) {
                (_, Some("shed")) => {
                    phase.shed += 1;
                    false
                }
                (_, Some("quarantine")) => {
                    phase.quarantined += 1;
                    false
                }
                ("abstain", _) => {
                    if want.verdict != "abstain" {
                        phase.mismatched += 1;
                    }
                    true
                }
                (verdict, _) => {
                    if verdict != want.verdict
                        || v.voted != want.voted
                        || v.flag_rate.to_bits() != want.flag_rate_bits
                    {
                        phase.mismatched += 1;
                    }
                    true
                }
            };
            if open_loop && *k >= WARMUP {
                if ok {
                    latencies.push((*at - due[*k]).as_secs_f64() * 1e3);
                } else {
                    missed += 1;
                }
            }
        }
        phase.lost = seen.iter().filter(|s| !**s).count() as u64;
        if open_loop {
            // A refused or lost session misses any latency limit: it takes
            // the worst latency the phase could have charged it.
            missed += seen[WARMUP.min(n)..].iter().filter(|s| !**s).count();
            let worst = phase.elapsed_s * 1e3;
            latencies.extend(std::iter::repeat_n(worst, missed));
        }
        latencies.sort_by(f64::total_cmp);
        phase.latencies_ms = latencies;
    }

    /// Runs serve rounds until one more would overrun `budget` (at least
    /// one), each with a seeded session order and Poisson schedule.
    pub fn rounds(&self, seed: u64, budget: Duration, time_submits: bool) -> ServeTotals {
        let mut totals = ServeTotals::default();
        let start = Instant::now();
        let mut round_s = 0.0;
        while totals.rounds == 0 || start.elapsed().as_secs_f64() + round_s < budget.as_secs_f64() {
            let round_start = Instant::now();
            let mut rng =
                SmallRng::seed_from_u64(seed ^ (totals.rounds as u64).wrapping_mul(0x9e37_79b9));
            let order = |len: usize, rng: &mut SmallRng| -> Vec<usize> {
                (0..len)
                    .map(|_| rng.gen_range(0..self.programs.len()))
                    .collect()
            };
            let mut flood_order = Vec::new();
            let mut events = 0;
            while events < FLOOD_EVENTS {
                let i = rng.gen_range(0..self.programs.len());
                events += self.setup.traced.subwindows(self.programs[i]).len().max(1);
                flood_order.push(i);
            }
            let flood = self.phase(&flood_order, None, time_submits);
            totals
                .flood_sps
                .push(flood.sessions as f64 / flood.elapsed_s);
            totals.flood_s.push(flood.elapsed_s);
            totals.absorb(flood, "flood", false);
            for (rate, label) in [(LOW_SPS, "low"), (HIGH_SPS, "high")] {
                let sessions = order(OPEN_SESSIONS, &mut rng);
                let mut t = 0.0;
                let arrivals: Vec<f64> = (0..OPEN_SESSIONS)
                    .map(|_| {
                        let at = t;
                        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
                        at
                    })
                    .collect();
                let phase = self.phase(&sessions, Some(&arrivals), time_submits);
                let (p50, p99) = (
                    percentile(&phase.latencies_ms, 0.50),
                    percentile(&phase.latencies_ms, 0.99),
                );
                if label == "low" {
                    totals.low_p50.push(p50);
                    totals.low_p99.push(p99);
                } else {
                    totals.high_p50.push(p50);
                    totals.high_p99.push(p99);
                }
                totals.absorb(phase, label, true);
            }
            totals.rounds += 1;
            round_s = round_start.elapsed().as_secs_f64();
            eprintln!(
                "[e2ebench] serve round {} ({round_s:.2} s): flood {:.0} sessions/s, \
                 low p50/p99 {:.3}/{:.3} ms, high p50/p99 {:.3}/{:.3} ms",
                totals.rounds,
                totals.flood_sps[totals.rounds - 1],
                totals.low_p50[totals.rounds - 1],
                totals.low_p99[totals.rounds - 1],
                totals.high_p50[totals.rounds - 1],
                totals.high_p99[totals.rounds - 1],
            );
        }
        totals
    }
}

impl ServeTotals {
    fn absorb(&mut self, phase: Phase, label: &str, open_loop: bool) {
        let stats = phase.stats;
        let round = self.rounds;
        if !stats.accounted() {
            self.check_failures.push(format!(
                "round {round} {label}: accounting identity broken: {stats:?}"
            ));
        }
        if phase.mismatched > 0 {
            self.check_failures.push(format!(
                "round {round} {label}: {} verdict(s) diverged from the batch path",
                phase.mismatched
            ));
        }
        if phase.lost > 0 {
            self.check_failures.push(format!(
                "round {round} {label}: {} session(s) lost",
                phase.lost
            ));
        }
        self.sessions += phase.sessions as u64;
        self.failed += phase.mismatched + phase.lost;
        if open_loop {
            self.failed += phase.shed + phase.quarantined;
        }
        self.shed_sessions += stats.shed_sessions;
        self.shed_events += stats.shed_events;
        self.abstained += stats.abstained;
        self.drain_s.push(phase.drain_s);
        self.submit_ns.extend(phase.submit_ns);
        self.lag_ms.extend(phase.lag_ms);
        self.events += phase.events;
    }
}
