//! The service benchmark.
//!
//! ```text
//! suu-perfbench --workload <cold_mix|hot_shared|warm_drift|hot_repeat> --seed <n>
//!               --seconds <s> --trace <0|1> --daemon <suu_serviced> --out <dir>
//! ```
//!
//! Spawns the real `suu_serviced --tcp` daemon with default settings,
//! drives it over loopback with at most two client threads and two
//! connections, checks every response, and prints each metric with its unit
//! and sample count; the last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` repeats the workload with per-response
//! traces on and reports the per-layer metrics: server-side stage timings
//! and counters, and the self time of every span of the benchmark-side
//! stage replay (written to `<out>/spans-<workload>-seed<n>.jsonl`).
//!
//! Exits non-zero when any output check fails. See `perfbench/DESIGN.md`
//! for the workloads and the layer → end-to-end metric mapping.

mod client;
mod daemon;
mod quality;
mod replay;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Value;
use suu_core::SuuInstance;
use suu_service::{drive_session, scan_request_id, DriveConfig};
use suu_workloads::SessionScenario;

use client::{closed_loop, open_loop, Arrivals, Conn, Outcome};
use daemon::{stat, Daemon};
use replay::{Replayer, SampleItem, SPANS};
use workloads::{DriftPlan, HotPlan, COLD_SAMPLE, DRIFT_SAMPLE, HOT_SAMPLE};

/// Client connections (and client threads): the host's core count here.
const CONNS: usize = 2;
/// Daemon set-ups before an untraced pass, the last of them being the
/// daemon it drives. One fewer follow the pass, so `setup_s`, the median of
/// all eleven, samples the host across the whole run rather than at one
/// moment of it.
const SETUPS_BEFORE: usize = 6;
/// The fixed offered rate of `hot_repeat`, requests per second.
const HOT_RATE: f64 = 2000.0;
/// Arrivals in the repeating request sequence of `hot_shared`.
const HOT_SHARED_PLAN: usize = 60_000;
/// Deltas generated per `warm_drift` run (more than any run sends).
const MAX_DELTAS: usize = 60_000;
/// Request id base of the priming requests (sent before the clock starts).
const PRIME_ID: u64 = 1_000_000;
/// `cold_mix` warm-up instances: keys 120–122 are one instance per family
/// at the 41st size step (107 jobs on 13 machines).
const COLD_WARM_UP: std::ops::Range<u64> = 120..123;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdMix,
    HotRepeat,
    HotShared,
    WarmDrift,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Self::ColdMix => "cold_mix",
            Self::HotRepeat => "hot_repeat",
            Self::HotShared => "hot_shared",
            Self::WarmDrift => "warm_drift",
        }
    }
}

#[derive(Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = [
        Workload::ColdMix,
        Workload::HotRepeat,
        Workload::HotShared,
        Workload::WarmDrift,
    ]
    .into_iter()
    .find(|w| w.name() == name)
    .ok_or_else(|| format!("unknown workload `{name}`"))?;
    Ok(Args {
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
        daemon: PathBuf::from(value("--daemon")?),
        out: PathBuf::from(value("--out")?),
    })
}

/// One timed pass of a workload against a fresh daemon.
struct Pass {
    outcome: Outcome,
    wall_s: f64,
    setups: Vec<f64>,
    stats: Value,
    rss_mb: f64,
    samples: Vec<SampleItem>,
    /// Scheduling requests sent before the clock started (priming).
    primed: u64,
    /// Failed output checks found while driving.
    failures: Vec<String>,
}

impl Pass {
    fn throughput(&self) -> f64 {
        self.outcome.ok as f64 / self.wall_s
    }
}

/// Spawns `count` (at least one) daemons one after another, running
/// `prepare` on each inside the set-up clock. Returns the last daemon and
/// every set-up time.
fn set_up(
    args: &Args,
    count: usize,
    mut prepare: impl FnMut(&Daemon) -> Result<(), String>,
) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    for k in 0..count {
        let (daemon, spawn_s) = Daemon::start(&args.daemon)?;
        let primed = Instant::now();
        prepare(&daemon)?;
        times.push(spawn_s + primed.elapsed().as_secs_f64());
        if k + 1 == count {
            return Ok((daemon, times));
        }
    }
    Err("no set-up requested".into())
}

/// Runs `drive(conn)` on every client connection concurrently and returns
/// the merged outcome plus the wall clock from `start` to the last answer.
fn on_connections(start: Instant, drive: impl Fn(usize) -> Outcome + Sync) -> (Outcome, f64) {
    let ends: Vec<(Outcome, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let drive = &drive;
                scope.spawn(move || (drive(conn), Instant::now()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = Outcome::default();
    let mut end = start;
    for (outcome, at) in ends {
        merged.merge(outcome);
        end = end.max(at);
    }
    (merged, (end - start).as_secs_f64())
}

/// Scrapes the pass's daemon, stops it, and runs one set-up fewer after the
/// pass than `setups` records before it (see [`SETUPS_BEFORE`]).
#[allow(clippy::too_many_arguments)]
fn finish_pass(
    args: &Args,
    daemon: Daemon,
    prepare: impl FnMut(&Daemon) -> Result<(), String>,
    outcome: Outcome,
    wall_s: f64,
    mut setups: Vec<f64>,
    samples: Vec<SampleItem>,
    primed: u64,
    failures: Vec<String>,
) -> Result<Pass, String> {
    let stats = daemon.stats()?;
    let rss_mb = daemon.peak_rss_mb()?;
    drop(daemon);
    let after = setups.len().saturating_sub(1);
    if after > 0 {
        setups.extend(set_up(args, after, prepare)?.1);
    }
    Ok(Pass {
        stats,
        rss_mb,
        outcome,
        wall_s,
        setups,
        samples,
        primed,
        failures,
    })
}

/// Pulls the kept response of request `id` into a sample item; a missing
/// response is a failed check.
fn sample_item(
    outcome: &mut Outcome,
    failures: &mut Vec<String>,
    id: u64,
    line: String,
    base: Option<SuuInstance>,
) -> Option<SampleItem> {
    match outcome.kept.remove(&id) {
        Some(served) => Some(SampleItem {
            id,
            line,
            base,
            served,
        }),
        None => {
            failures.push(format!("sampled request {id} was not answered ok"));
            None
        }
    }
}

/// `cold_mix`: closed loop, every request a distinct instance.
fn cold_mix(args: &Args, traced: bool, setups: usize) -> Result<Pass, String> {
    // Priming: one mid-sized warm-up solve per family, from a seed stream
    // the timed requests never use, so the clock starts on a daemon whose
    // code paths and allocator are warm and the cache still never hits.
    let warm_up = |daemon: &Daemon| {
        let mut conn = Conn::connect(&daemon.addr).map_err(|e| format!("priming: {e}"))?;
        for k in COLD_WARM_UP {
            let instance = workloads::cold_instance(args.seed ^ 0x5EED_F5E7, k);
            let line = workloads::cold_line(&instance, PRIME_ID + k, false, false);
            expect_ok(PRIME_ID + k, &conn.call(&line))?;
        }
        Ok(())
    };
    let (daemon, times) = set_up(args, setups, &warm_up)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let (mut outcome, wall_s) = on_connections(start, |conn| {
        closed_loop(&daemon.addr, deadline, usize::MAX, |i| {
            let k = (i * CONNS + conn) as u64;
            let instance = workloads::cold_instance(args.seed, k);
            let sampled = k < COLD_SAMPLE as u64;
            let line = workloads::cold_line(&instance, k + 1, traced, sampled);
            (k + 1, line, sampled)
        })
    });
    let mut failures = Vec::new();
    let samples = (0..COLD_SAMPLE as u64)
        .filter_map(|k| {
            let instance = workloads::cold_instance(args.seed, k);
            let line = workloads::cold_line(&instance, k + 1, traced, true);
            sample_item(&mut outcome, &mut failures, k + 1, line, None)
        })
        .collect();
    finish_pass(
        args, daemon, &warm_up, outcome, wall_s, times, samples, 3, failures,
    )
}

/// Marks the arrivals whose responses the hot workloads keep: the first
/// request of each of the first [`HOT_SAMPLE`] tenants.
fn hot_keep(plan: &HotPlan) -> Vec<bool> {
    let mut seen = vec![false; plan.tails.len()];
    plan.arrivals
        .iter()
        .map(|&t| t < HOT_SAMPLE && !std::mem::replace(&mut seen[t], true))
        .collect()
}

/// Priming of the hot workloads: the initially live tenants are solved
/// before the clock, so the timed window starts in the cache-warm steady
/// state.
fn hot_prime(daemon: &Daemon, plan: &HotPlan) -> Result<(), String> {
    let mut conn = Conn::connect(&daemon.addr).map_err(|e| format!("priming: {e}"))?;
    for (t, tail) in plan.tails.iter().take(workloads::HOT_ACTIVE).enumerate() {
        let id = PRIME_ID + t as u64;
        expect_ok(id, &conn.call(&workloads::line_with_id(id, tail)))?;
    }
    Ok(())
}

/// `hot_repeat`: open loop at [`HOT_RATE`] over bursty tenant repeats.
fn hot_repeat(args: &Args, traced: bool, setups: usize) -> Result<Pass, String> {
    let total = (HOT_RATE * args.seconds).round().max(1.0) as usize;
    let plan = workloads::hot_repeat(args.seed, total, traced);
    let keep = hot_keep(&plan);
    let prime = |daemon: &Daemon| hot_prime(daemon, &plan);
    let (daemon, times) = set_up(args, setups, &prime)?;
    let arrivals = Arrivals {
        start: Instant::now() + Duration::from_millis(2),
        rate: HOT_RATE,
        total,
        conns: CONNS,
    };
    let line = |k: usize| workloads::line_with_id(k as u64 + 1, &plan.tails[plan.arrivals[k]]);
    let (mut outcome, wall_s) = on_connections(arrivals.start, |conn| {
        open_loop(&daemon.addr, arrivals, conn, line, |k| keep[k])
    });
    let mut failures = Vec::new();
    let samples = (0..total)
        .filter(|&k| keep[k])
        .filter_map(|k| sample_item(&mut outcome, &mut failures, k as u64 + 1, line(k), None))
        .collect();
    let primed = workloads::HOT_ACTIVE as u64;
    finish_pass(
        args, daemon, &prime, outcome, wall_s, times, samples, primed, failures,
    )
}

/// `hot_shared`: the `hot_repeat` traffic in a closed loop, both connections
/// sending the same request sequence (connection `c` sends arrival `i` as id
/// `2i + c + 1`), so a fresh tenant's first request usually reaches the
/// daemon twice at once and one copy coalesces on the other's solve. The
/// sequence repeats after [`HOT_SHARED_PLAN`] arrivals; by then its first
/// tenants have long been evicted, so the repeat solves them afresh. The
/// sample is the first request of each of the first tenants, in the copy
/// that led the solve (a coalesced follower reports `cache_hit` and no
/// pivots of its own).
fn hot_shared(args: &Args, traced: bool, setups: usize) -> Result<Pass, String> {
    let plan = workloads::hot_repeat(args.seed, HOT_SHARED_PLAN, traced);
    let keep = hot_keep(&plan);
    let prime = |daemon: &Daemon| hot_prime(daemon, &plan);
    let (daemon, times) = set_up(args, setups, &prime)?;
    let id = |i: usize, conn: usize| (i * CONNS + conn) as u64 + 1;
    let line = |i: usize, conn: usize| {
        let tenant = plan.arrivals[i % HOT_SHARED_PLAN];
        workloads::line_with_id(id(i, conn), &plan.tails[tenant])
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let (mut outcome, wall_s) = on_connections(start, |conn| {
        closed_loop(&daemon.addr, deadline, usize::MAX, |i| {
            (id(i, conn), line(i, conn), i < HOT_SHARED_PLAN && keep[i])
        })
    });
    let mut failures = Vec::new();
    let samples = (0..HOT_SHARED_PLAN)
        .filter(|&i| keep[i])
        .filter_map(|i| {
            let led = (0..CONNS).find(|&conn| {
                outcome
                    .kept
                    .get(&id(i, conn))
                    .is_some_and(|r| r.contains("\"cache_hit\":false"))
            });
            let conn = led.unwrap_or(0);
            for other in (0..CONNS).filter(|&c| c != conn) {
                outcome.kept.remove(&id(i, other));
            }
            sample_item(
                &mut outcome,
                &mut failures,
                id(i, conn),
                line(i, conn),
                None,
            )
        })
        .collect();
    let primed = workloads::HOT_ACTIVE as u64;
    finish_pass(
        args, daemon, &prime, outcome, wall_s, times, samples, primed, failures,
    )
}

/// Checks that `reply` (to request `id`, sent before the clock) is `ok`.
fn expect_ok(id: u64, reply: &std::io::Result<String>) -> Result<(), String> {
    match reply {
        Ok(reply) if reply.starts_with(&format!("{{\"id\":{id},\"ok\":true")) => Ok(()),
        Ok(reply) => Err(format!(
            "priming failed: {}",
            &reply[..reply.len().min(300)]
        )),
        Err(err) => Err(format!("priming: {err}")),
    }
}

/// Sends every tenant base in full on one connection; returns the responses.
fn prime(addr: &str, plan: &DriftPlan, traced: bool) -> Result<Vec<String>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("priming connect: {e}"))?;
    plan.bases
        .iter()
        .enumerate()
        .map(|(t, base)| {
            let id = PRIME_ID + t as u64;
            let reply = conn.call(&workloads::drift_base_line(id, base, traced));
            expect_ok(id, &reply)?;
            reply.map_err(|e| e.to_string())
        })
        .collect()
}

/// The adaptive-session connection of `warm_drift`: sessions driven back to
/// back by [`drive_session`] until `deadline`.
fn session_loop(
    addr: &str,
    scenarios: &[SessionScenario],
    seed: u64,
    deadline: Instant,
) -> Outcome {
    let mut outcome = Outcome::default();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(err) => {
            outcome.attempted += 1;
            outcome.timeouts += 1;
            outcome.first_error = Some(format!("connect: {err}"));
            return outcome;
        }
    };
    let mut alive = true;
    for j in 0.. {
        if !alive || Instant::now() >= deadline {
            break;
        }
        let scenario = &scenarios[j % scenarios.len()];
        let drive = DriveConfig {
            seed: seed.wrapping_add(j as u64),
            max_steps: 10_000,
            report_completions: true,
            failures: scenario.failures.clone(),
            drifts: scenario.drifts.clone(),
        };
        let failed_before = outcome.failed();
        let run = drive_session(&scenario.instance, &drive, |line| {
            if !alive || Instant::now() >= deadline {
                return None;
            }
            outcome.verbs += 1;
            let reply = conn.timed_call(&mut outcome, scan_request_id(line), line, false);
            alive = reply.is_some();
            reply
        });
        // A session `drive_session` could not complete although every reply was
        // answered `ok` in time (a malformed reply) is a failed check too.
        if let Err(err) = run {
            if alive && Instant::now() < deadline && outcome.failed() == failed_before {
                outcome.errors += 1;
                outcome.first_error.get_or_insert(err);
            }
        }
    }
    outcome
}

/// Deltas and sessions of `warm_drift` on the two connections until
/// `deadline`. Returns the outcome and the wall clock.
fn drift_traffic(
    addr: &str,
    plan: &DriftPlan,
    scenarios: &[SessionScenario],
    seed: u64,
    deadline: Instant,
    traced: bool,
) -> (Outcome, f64) {
    let digests: Vec<u64> = plan
        .bases
        .iter()
        .map(SuuInstance::canonical_digest)
        .collect();
    on_connections(Instant::now(), |conn| {
        if conn == 0 {
            closed_loop(addr, deadline, usize::MAX, |i| {
                let (tenant, edit) = &plan.deltas[i % plan.deltas.len()];
                let id = i as u64 + 1;
                let line = workloads::drift_delta_line(id, digests[*tenant], edit, traced);
                (id, line, i < DRIFT_SAMPLE)
            })
        } else {
            session_loop(addr, scenarios, seed, deadline)
        }
    })
}

/// `warm_drift`: primed chains tenants drifting by deltas on one
/// connection, adaptive sessions on the other.
fn warm_drift(args: &Args, traced: bool, setups: usize) -> Result<Pass, String> {
    let plan = workloads::warm_drift(args.seed, MAX_DELTAS);
    let scenarios = workloads::sessions(args.seed);
    let mut primed_replies = Vec::new();
    let (daemon, times) = set_up(args, setups, |daemon| {
        primed_replies = prime(&daemon.addr, &plan, traced)?;
        Ok(())
    })?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut outcome, wall_s) =
        drift_traffic(&daemon.addr, &plan, &scenarios, args.seed, deadline, traced);
    let mut failures = Vec::new();
    let mut samples: Vec<SampleItem> = plan
        .bases
        .iter()
        .zip(primed_replies)
        .enumerate()
        .map(|(t, (base, served))| SampleItem {
            id: PRIME_ID + t as u64,
            line: workloads::drift_base_line(PRIME_ID + t as u64, base, traced),
            base: None,
            served,
        })
        .collect();
    let digests: Vec<u64> = plan
        .bases
        .iter()
        .map(SuuInstance::canonical_digest)
        .collect();
    for (i, (tenant, edit)) in plan.deltas.iter().take(DRIFT_SAMPLE).enumerate() {
        let id = i as u64 + 1;
        let line = workloads::drift_delta_line(id, digests[*tenant], edit, traced);
        let base = Some(plan.bases[*tenant].clone());
        samples.extend(sample_item(&mut outcome, &mut failures, id, line, base));
    }
    let primed = plan.bases.len() as u64;
    let prepare = |daemon: &Daemon| prime(&daemon.addr, &plan, traced).map(drop);
    finish_pass(
        args, daemon, prepare, outcome, wall_s, times, samples, primed, failures,
    )
}

fn run_pass(args: &Args, traced: bool, setups: usize) -> Result<Pass, String> {
    match args.workload {
        Workload::ColdMix => cold_mix(args, traced, setups),
        Workload::HotRepeat => hot_repeat(args, traced, setups),
        Workload::HotShared => hot_shared(args, traced, setups),
        Workload::WarmDrift => warm_drift(args, traced, setups),
    }
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile with at least 10 samples beyond it, capped at
/// p99 (reached once a run has ≥ 1,000 samples).
fn tail_q(samples: usize) -> f64 {
    (1.0 - 10.0 / samples.max(1) as f64).clamp(0.5, 0.99)
}

/// The median, averaging the two middle values of an even count.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics in print order: name → (value, unit, samples behind it).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str, u64)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit, samples));
    }
}

/// The output checks on a finished pass, off the clock: replay every
/// sampled request (spans recorded in `replayer`), compare with the served
/// response, check warm against cold LP values, and simulate the sampled
/// schedules for `makespan_over_lb`. Returns the quality value, its sample
/// count, and appends failures.
fn check_pass(
    workload: Workload,
    pass: &Pass,
    replayer: &mut Replayer,
    failures: &mut Vec<String>,
) -> (f64, u64) {
    failures.extend(pass.failures.iter().cloned());
    if workload != Workload::HotRepeat && pass.outcome.busy > 0 {
        failures.push(format!(
            "closed loop saw {} busy rejections",
            pass.outcome.busy
        ));
    }
    let mut quality_sample = Vec::new();
    for item in &pass.samples {
        match replayer.replay(item) {
            Ok(replayed) => {
                // Priming solves are set-up, not served traffic.
                if item.id < PRIME_ID {
                    quality_sample.push((replayed.instance, replayed.schedule));
                }
            }
            Err(err) => failures.push(format!("replay: {err}")),
        }
    }
    for &(warm, cold) in &replayer.warm_vs_cold {
        if (warm - cold).abs() > 1e-9 * cold.abs().max(1.0) {
            failures.push(format!("warm lp_value {warm} differs from cold {cold}"));
        }
    }
    let (value, censored) = quality::makespan_over_lb(&quality_sample);
    if censored > 0 {
        failures.push(format!("{censored} censored Monte-Carlo trials"));
    }
    (value, quality_sample.len() as u64)
}

/// Server-side consistency of a traced pass: `requests` equals the
/// scheduling requests attempted minus `busy`, and every stage histogram
/// counts what it should.
fn check_consistency(pass: &Pass, failures: &mut Vec<String>) {
    let o = &pass.outcome;
    let requests = pass.primed + o.attempted - o.verbs - o.busy;
    let served = stat(&pass.stats, "requests") as u64;
    if served != requests {
        failures.push(format!(
            "server counted {served} requests, client attempted {requests} (minus busy)"
        ));
    }
    for stage in ["parse", "solve", "render"] {
        let count = stat(&pass.stats, &format!("stages.{stage}.count")) as u64;
        if count != served {
            failures.push(format!("stage {stage} counted {count}, requests {served}"));
        }
    }
    // The pipelined executor runs every verb through the same pool, so queue
    // and flush also count the session verbs and the set-up `stats` verb;
    // queue additionally counts the scrape that produced `stats` (dequeued
    // before it rendered the snapshot, flushed after).
    for (stage, scrapes) in [("queue", 2), ("flush", 1)] {
        let count = stat(&pass.stats, &format!("stages.{stage}.count")) as u64;
        let expected = served + o.verbs + scrapes;
        if count != expected {
            failures.push(format!(
                "stage {stage} counted {count}, expected {expected}"
            ));
        }
    }
}

/// Answers per latency window: enough for a p99 with 10 samples beyond it.
const LATENCY_WINDOW: usize = 1_000;

/// The end-to-end metrics of an untraced pass. The latencies are medians
/// over windows of at least 1,000 consecutive answers (one window below
/// 2,000 answers): a stall of the shared host delays every answer queued
/// behind it and can move a whole run's p99 on its own, but in windows it
/// moves only the windows it lands in.
fn end_to_end(pass: &Pass, quality: (f64, u64), failed_checks: u64) -> Metrics {
    let o = &pass.outcome;
    let mut answers = o.latencies_us.clone();
    answers.sort_by_key(|&(at, _)| at);
    let n = answers.len();
    let windows = (n / LATENCY_WINDOW).max(1);
    let (mut p50, mut tail) = (Vec::new(), Vec::new());
    for w in 0..windows {
        let mut lat: Vec<f64> = answers[w * n / windows..(w + 1) * n / windows]
            .iter()
            .map(|&(_, l)| l)
            .collect();
        lat.sort_by(f64::total_cmp);
        p50.push(quantile(&lat, 0.5));
        tail.push(quantile(&lat, tail_q(lat.len())));
    }
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        median(&pass.setups),
        "s",
        pass.setups.len() as u64,
    );
    m.put("throughput_rps", pass.throughput(), "1/s", o.ok);
    m.put("latency_p50_ms", median(&p50) / 1e3, "ms", n as u64);
    m.put("latency_p99_ms", median(&tail) / 1e3, "ms", n as u64);
    let failed = o.failed() + failed_checks;
    m.put(
        "success_rate",
        1.0 - ratio(failed as f64, o.attempted as f64),
        "ratio",
        o.attempted,
    );
    m.put("makespan_over_lb", quality.0, "ratio", quality.1);
    m.put("peak_rss_mb", pass.rss_mb, "MiB", 1);
    m
}

fn per_layer(untraced: &Pass, traced: &Pass, replayer: &Replayer, failed_checks: u64) -> Metrics {
    let mut m = Metrics::default();
    let self_times = replayer.tracer.self_times();
    for name in SPANS {
        let (calls, ns) = self_times.get(name).copied().unwrap_or((0, 0));
        m.put(
            format!("{name}.self_us"),
            ratio(ns as f64 / 1e3, calls as f64),
            "us",
            calls,
        );
    }
    let c = replayer.counters;
    let items = traced.samples.len() as u64;
    m.put("lp.rows", c.lp_rows as f64, "count", items);
    m.put("lp.pivots", c.lp_pivots as f64, "count", items);
    m.put(
        "lp.phase1_pivots",
        c.lp_phase1_pivots as f64,
        "count",
        items,
    );
    m.put(
        "lp.warm_pivots",
        c.lp_warm_pivots as f64,
        "count",
        c.warm_solves,
    );
    m.put(
        "protocol.response_bytes",
        ratio(c.response_bytes as f64, c.responses as f64),
        "bytes",
        c.responses,
    );

    let traces = &traced.outcome.traces;
    let nt = traces.len() as u64;
    let stage = |f: fn(&client::Trace) -> u64| {
        let mut v: Vec<f64> = traces.iter().map(|t| f(t) as f64).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let solve = stage(|t| t.solve_us);
    let queue = stage(|t| t.queue_us);
    m.put("solver.solve_us.p50", quantile(&solve, 0.5), "us", nt);
    m.put(
        "solver.solve_us.p99",
        quantile(&solve, tail_q(solve.len())),
        "us",
        nt,
    );
    m.put(
        "pipeline.queue_wait_us.p50",
        quantile(&queue, 0.5),
        "us",
        nt,
    );
    m.put(
        "pipeline.queue_wait_us.p99",
        quantile(&queue, tail_q(queue.len())),
        "us",
        nt,
    );
    m.put(
        "protocol.render_us.p50",
        quantile(&stage(|t| t.render_us), 0.5),
        "us",
        nt,
    );
    m.put(
        "server.flush_us.p50",
        quantile(&stage(|t| t.flush_us), 0.5),
        "us",
        nt,
    );

    let s = &traced.stats;
    m.put(
        "protocol.parse_us.p50",
        stat(s, "stages.parse.p50"),
        "us",
        stat(s, "stages.parse.count") as u64,
    );
    m.put(
        "pipeline.queue_depth.max",
        stat(s, "queue.depth_samples.max"),
        "count",
        stat(s, "queue.depth_samples.count") as u64,
    );
    let one = |m: &mut Metrics, name: &str, path: &str| m.put(name, stat(s, path), "count", 1);
    one(&mut m, "pipeline.busy_rejections", "busy_rejections");
    let (hits, misses) = (stat(s, "cache.hits"), stat(s, "cache.misses"));
    m.put(
        "cache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        (hits + misses) as u64,
    );
    one(&mut m, "cache.evictions", "cache.evictions");
    one(&mut m, "flight.coalesced", "coalesced");
    one(&mut m, "cache.unknown_base", "unknown_base");
    let fresh = stat(s, "fresh_solves");
    m.put(
        "lp.warm_hit_ratio",
        ratio(stat(s, "warm_hits"), fresh),
        "ratio",
        fresh as u64,
    );
    let revisions = stat(s, "sessions.revisions");
    m.put(
        "session.revision_us.p50",
        stat(s, "sessions.revision_latency_us.p50"),
        "us",
        revisions as u64,
    );
    m.put(
        "session.revision_us.p99",
        stat(s, "sessions.revision_latency_us.p99"),
        "us",
        revisions as u64,
    );
    m.put(
        "session.revision_warm_ratio",
        ratio(stat(s, "sessions.revision_warm_hits"), revisions),
        "ratio",
        revisions as u64,
    );
    one(&mut m, "session.unknown_session", "sessions.unknown");

    let o = &traced.outcome;
    m.put(
        "client.generator_lag_ms.max",
        o.generator_lag_max_us / 1e3,
        "ms",
        o.attempted,
    );
    m.put(
        "client.tracing_overhead",
        ratio(traced.throughput(), untraced.throughput()),
        "ratio",
        2,
    );
    m.put(
        "client.error_rate",
        ratio((o.failed() + failed_checks) as f64, o.attempted as f64),
        "ratio",
        o.attempted,
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("suu-perfbench: {err}");
            std::process::exit(2);
        }
    };
    if let Err(err) = run(&args) {
        eprintln!("suu-perfbench: {err}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut failures = Vec::new();
    // A traced run splits its time between an untraced pass, needed only for
    // its throughput, and the traced pass; each sets up once.
    let half = Args {
        seconds: args.seconds / 2.0,
        ..args.clone()
    };
    let (timed, setups) = if args.trace {
        (&half, 1)
    } else {
        (args, SETUPS_BEFORE)
    };
    let untraced = run_pass(timed, false, setups)?;
    let mut replayer = Replayer::default();
    let (report, pass, failed_checks) = if args.trace {
        let traced = run_pass(timed, true, 1)?;
        // The stage replay runs on the traced pass's sample, so the spans
        // describe the computation served with traces on.
        check_pass(
            args.workload,
            &untraced,
            &mut Replayer::default(),
            &mut failures,
        );
        check_pass(args.workload, &traced, &mut replayer, &mut failures);
        check_consistency(&traced, &mut failures);
        let failed = failures.len() as u64 + untraced.outcome.failed();
        let path = args.out.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        replayer
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
        (
            per_layer(&untraced, &traced, &replayer, failed),
            traced,
            failed,
        )
    } else {
        let quality = check_pass(args.workload, &untraced, &mut replayer, &mut failures);
        let failed = failures.len() as u64;
        (end_to_end(&untraced, quality, failed), untraced, failed)
    };

    let o = &pass.outcome;
    println!(
        "workload={} seed={} seconds={} trace={} attempted={} ok={} errors={} busy={} \
         timeouts={} mismatched={} wall_s={:.3} mean_response_bytes={:.0}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.attempted,
        o.ok,
        o.errors,
        o.busy,
        o.timeouts,
        o.mismatched,
        pass.wall_s,
        ratio(o.response_bytes as f64, o.latencies_us.len() as f64)
    );
    let setups: Vec<String> = pass.setups.iter().map(|t| format!("{t:.4}")).collect();
    println!("set-ups (s, in order): {}", setups.join(" "));
    if let Some(err) = &o.first_error {
        println!("first error: {err}");
    }
    for failure in &failures {
        println!("check failed: {failure}");
    }
    let mut json = Vec::new();
    for (name, value, unit, samples) in &report.0 {
        println!("{name:<36} {value:>14.4} {unit:<6} (n={samples})");
        json.push((
            name.clone(),
            Value::Object(vec![
                ("value".to_string(), Value::Number(*value)),
                ("unit".to_string(), Value::String((*unit).to_string())),
            ]),
        ));
    }
    let failed = o.failed() + failed_checks;
    let correct = failed == 0;
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        (
            "attempted".to_string(),
            Value::Number(o.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Value::Number(failed as f64)),
        ("metrics".to_string(), Value::Object(json)),
    ]);
    println!("{}", line.render());
    if !correct {
        std::process::exit(1);
    }
    Ok(())
}
