//! `serve_distinct`: an in-process `Server` on loopback, driven by one
//! pipelined connection in an open loop, every request a distinct spec.
//!
//! Every request is a distinct 8×8 spec (its own fault pattern and PRNG
//! seed), so the result cache, dedup and the routing-context cache never
//! hit: each request builds a fresh routing context and runs the engine
//! inside the service, and queueing shows once the workers are busy.
//!
//! The generator sends on a fixed schedule of constant absolute rates
//! whatever the server does, so a slow server faces a growing queue
//! rather than less load. Each request is timed from when it was *due*,
//! which charges a stall to every request it delays, and the generator's
//! own lateness is recorded beside the latencies.
//!
//! The schedule is five rounds, each of a nominal window (where
//! `p50_ms`/`p99_ms` are read) and two rungs of a rate ladder, each rung
//! after a closed-loop burst (where `wall_s` is read), every step run to
//! the end. The rounds spread each reading over the whole run, so a stall
//! of the shared host moves one window or burst and the median over them
//! keeps it out of the reading. A ladder step holds when its tail latency stays within
//! the workload's limit and its backlog does not grow; `max_rps` is the
//! highest step that held. (The server's dispatcher runs jobs in batches
//! and waits for a whole batch, so one host stall can tip a step well
//! below saturation into a convoy of late answers; running every rung
//! keeps `max_rps` a reading of capacity rather than of the first stall.)
//! A step whose backlog reaches [`BACKLOG_CAP`] is cut short — that
//! already fails it, and stopping there keeps the connection under the
//! server's per-client quota, so an overloaded step never turns into
//! refusals.

use std::collections::{HashMap, HashSet};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use wormsim_experiments::{fnv1a, report_json_fingerprint, run_custom};
use wormsim_fault::random_pattern;
use wormsim_obs::MetricsSnapshot;
use wormsim_routing::AlgorithmKind;
use wormsim_serve::protocol::{read_frame, write_frame, Request, Response, WireSpec};
use wormsim_serve::{Client, PatternInterner, Server, ServerConfig};
use wormsim_topology::{Coord, Mesh};

use crate::stats::{self, Tail};
use crate::trace::{Tracer, ROOT};
use crate::{median_of, metric, numbers, object, Json, Pass};

/// Mesh radix of every served spec.
pub const MESH: u16 = 8;
/// Warm-up and measured cycles of every served spec.
pub const WARMUP_CYCLES: u64 = 500;
pub const MEASURE_CYCLES: u64 = 2_000;
/// Offered loads, sub-saturation to full load (100-flit messages).
pub const RATES: [f64; 5] = [0.002, 0.004, 0.006, 0.008, 0.010];
/// Seed faults per spec cycle through `FAULTS`. Patterns must be
/// pairwise distinct, and an 8×8 mesh has one empty and only 64
/// single-node patterns, too few for a run's requests.
pub const FAULTS: std::ops::RangeInclusive<usize> = 2..=4;
/// Nominal request rate, and its share of the measuring time. The
/// dispatcher waits for a whole batch before it takes the next, so at low
/// load jobs that arrive while one runs wait for it even with a worker
/// idle; 20 requests/s keeps that wait, and its amplification of host
/// noise, small.
const NOMINAL_RPS: f64 = 20.0;
const NOMINAL_SHARE: f64 = 0.7;
/// Rounds of the schedule: a nominal window, then a burst before each of
/// two ladder rungs.
const ROUNDS: usize = 5;
/// Requests of one closed-loop burst, all due at once (well under the
/// per-client quota).
const BURST: usize = 64;
/// Ladder rungs, lowest first, two a round; they share the rest of the
/// measuring time equally. Spaced finely where the two-worker server on
/// two cores saturates (about 130 requests/s), with one rung well below
/// it for when a slow spell of the host pulls saturation down.
const LADDER_RPS: [f64; 10] = [
    80.0, 100.0, 110.0, 115.0, 120.0, 125.0, 130.0, 135.0, 140.0, 150.0,
];
/// Outstanding requests at which a step is cut short (the default
/// per-client quota is 256).
const BACKLOG_CAP: u64 = 192;
/// How long before a request is due the generator stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_millis(1);
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 21;
/// Served reports re-run in process after the timed window.
const RECHECKS: usize = 16;
/// How long to wait for the answers of a step after its last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Nominal,
    Burst,
    Ladder,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Step {
    kind: Kind,
    /// Requests per second (infinite for a burst: all due at once).
    rate: f64,
    requests: usize,
    /// Index of the step's first spec; request ids are index + 1, so they
    /// are fixed by the schedule even when a step is cut short.
    first: usize,
}

/// The fixed schedule over `seconds` of measuring time: a pure function
/// of its argument, with absolute rates.
fn schedule(seconds: f64) -> Vec<Step> {
    let window = seconds * NOMINAL_SHARE / ROUNDS as f64;
    let rung = seconds * (1.0 - NOMINAL_SHARE) / LADDER_RPS.len() as f64;
    let count = |rate: f64, secs: f64| (rate * secs).round().max(1.0) as usize;
    let mut steps: Vec<Step> = Vec::new();
    for round in LADDER_RPS.chunks(LADDER_RPS.len() / ROUNDS) {
        let mut add = |kind, rate, requests| {
            let first = steps.last().map_or(0, |s| s.first + s.requests);
            steps.push(Step {
                kind,
                rate,
                requests,
                first,
            });
        };
        add(Kind::Nominal, NOMINAL_RPS, count(NOMINAL_RPS, window));
        for &rate in round {
            add(Kind::Burst, f64::INFINITY, BURST);
            add(Kind::Ladder, rate, count(rate, rung));
        }
    }
    steps
}

/// The wire name of an algorithm (its serialized variant name).
fn wire_name(kind: AlgorithmKind) -> String {
    serde_json::to_string(&kind)
        .expect("algorithm kinds serialize")
        .trim_matches('"')
        .to_string()
}

/// The `i`-th seed-fault count of the rotation through [`FAULTS`].
pub fn fault_count(i: usize) -> usize {
    FAULTS.start() + i % (FAULTS.end() - FAULTS.start() + 1)
}

/// The generated inputs of one run: one spec per scheduled request.
struct Inputs {
    specs: Vec<WireSpec>,
    schedule: Vec<Step>,
}

impl Inputs {
    /// Generate the inputs: a pure function of (seed, seconds). Specs are
    /// pairwise distinct in fault pattern (and hence in canonical form):
    /// algorithms in rotation, rates in rotation, 2–4 seed faults, a
    /// fresh PRNG seed each. The rotations make the mix of work the same
    /// for every seed; only fault positions and traffic differ.
    fn generate(seed: u64, seconds: f64) -> Inputs {
        let schedule = schedule(seconds);
        let total: usize = schedule.iter().map(|s| s.requests).sum();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mesh = Mesh::square(MESH);
        let kinds = AlgorithmKind::ALL;
        let mut seen: HashSet<Vec<Coord>> = HashSet::new();
        let specs = (0..total)
            .map(|i| {
                let kind = kinds[i % kinds.len()];
                let rate = RATES[(i / kinds.len()) % RATES.len()];
                let faults = fault_count(i / (kinds.len() * RATES.len()));
                let mut spec = WireSpec::basic(MESH, &wire_name(kind), rate, rng.next_u64());
                spec.warmup_cycles = WARMUP_CYCLES;
                spec.measure_cycles = MEASURE_CYCLES;
                let mut attempts = 0;
                spec.faults = loop {
                    attempts += 1;
                    assert!(attempts < 10_000, "no fresh {faults}-fault pattern left");
                    let Ok(p) = random_pattern(&mesh, faults, &mut rng) else {
                        continue;
                    };
                    let coords: Vec<Coord> = mesh
                        .nodes()
                        .filter(|&n| p.is_faulty(n))
                        .map(|n| mesh.coord(n))
                        .collect();
                    if seen.insert(coords.clone()) {
                        break coords;
                    }
                };
                spec
            })
            .collect();
        Inputs { specs, schedule }
    }

    /// Digest of everything a run sends, for the purity self-checks.
    fn digest(&self) -> u64 {
        let specs = serde_json::to_string(&self.specs).expect("specs serialize");
        let sched = format!("{:?}", self.schedule);
        fnv1a(&[specs.as_bytes(), sched.as_bytes()].concat())
    }
}

const PENDING: u8 = 0;
const OK: u8 = 1;
const WRONG: u8 = 2;

/// Per-request timing, shared by the generator and the reader. Times are
/// nanoseconds since `Shared::epoch`.
#[derive(Default)]
struct Slot {
    due: AtomicU64,
    sent: AtomicU64,
    done: AtomicU64,
    status: AtomicU8,
    span: AtomicU64,
}

struct Shared {
    epoch: Instant,
    slots: Vec<Slot>,
    answered: AtomicU64,
    /// Requests whose report the reader keeps for the in-process re-run.
    kept: HashSet<u64>,
}

impl Shared {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
    fn at(&self, ns: u64) -> Instant {
        self.epoch + Duration::from_nanos(ns)
    }
}

/// What the reader thread saw.
#[derive(Default)]
struct ReaderOut {
    decode_ns: Vec<u64>,
    result_bytes: Vec<u64>,
    kept: HashMap<u64, String>,
    problems: Vec<String>,
}

/// Receive and check every response until the server closes the
/// connection.
fn reader(stream: TcpStream, shared: Arc<Shared>, tracer: Arc<Tracer>, root: u64) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut r = BufReader::new(stream);
    loop {
        let frame = match read_frame(&mut r) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(e) => {
                out.problems.push(format!("reading a response: {e}"));
                break;
            }
        };
        let recv = Instant::now();
        let decoded = std::str::from_utf8(&frame)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str::<Response>(t).map_err(|e| e.to_string()));
        let decoded_at = Instant::now();
        out.decode_ns.push((decoded_at - recv).as_nanos() as u64);
        let (id, ok) = match decoded {
            Ok(Response::Result {
                id,
                report_json,
                fingerprint,
                cached,
                deduped,
            }) => {
                out.result_bytes.push(frame.len() as u64);
                let fp_ok = fingerprint == report_json_fingerprint(&report_json);
                if !fp_ok {
                    out.problems.push(format!(
                        "request {id}: fingerprint does not match its report"
                    ));
                }
                if cached || deduped {
                    out.problems
                        .push(format!("request {id} was served from the cache or dedup"));
                }
                if shared.kept.contains(&id) {
                    out.kept.insert(id, report_json);
                }
                (id, fp_ok && !cached && !deduped)
            }
            Ok(Response::Error { id, code, message }) => {
                out.problems
                    .push(format!("request {id} refused ({code}): {message}"));
                (id, false)
            }
            Ok(other) => {
                out.problems.push(format!("unexpected response {other:?}"));
                continue;
            }
            Err(e) => {
                out.problems.push(format!("undecodable response: {e}"));
                continue;
            }
        };
        let Some(slot) = shared.slots.get(id.wrapping_sub(1) as usize) else {
            out.problems
                .push(format!("answer for unknown request {id}"));
            continue;
        };
        slot.done.store(shared.ns(recv), Ordering::Relaxed);
        slot.status
            .store(if ok { OK } else { WRONG }, Ordering::Release);
        shared.answered.fetch_add(1, Ordering::AcqRel);
        if tracer.enabled() {
            let span = slot.span.load(Ordering::Relaxed);
            let sent = shared.at(slot.sent.load(Ordering::Relaxed));
            tracer.record(span, "serve.request", root, id, sent, recv);
            tracer.record(tracer.new_id(), "client.decode", root, id, recv, decoded_at);
        }
    }
    out
}

/// One step's outcome.
struct StepResult {
    step: Step,
    /// Indices of the requests sent.
    sent: std::ops::Range<usize>,
    ok: usize,
    failed: usize,
    /// Latencies of the answered requests, sorted.
    latencies_ms: Vec<f64>,
    /// Tail latency under the ten-beyond rule.
    tail: Tail,
    p50_ms: f64,
    late_ms: Vec<f64>,
    cut_short: bool,
    backlog_grew: bool,
    held: bool,
    /// First due time to last answer.
    makespan_s: f64,
}

impl StepResult {
    fn to_json(&self) -> Json {
        let late = stats::sorted(self.late_ms.clone());
        let kind = match self.step.kind {
            Kind::Nominal => "nominal",
            Kind::Burst => "burst",
            Kind::Ladder => "ladder",
        };
        object([
            ("kind", Json::Str(kind.into())),
            ("rate_rps", Json::Float(self.step.rate)),
            ("scheduled", Json::UInt(self.step.requests as u64)),
            ("sent", Json::UInt(self.sent.len() as u64)),
            ("ok", Json::UInt(self.ok as u64)),
            ("failed", Json::UInt(self.failed as u64)),
            ("p50_ms", Json::Float(self.p50_ms)),
            ("tail_ms", Json::Float(self.tail.value)),
            ("tail_percentile", Json::Float(self.tail.percentile)),
            ("tail_samples", Json::UInt(self.tail.samples as u64)),
            ("gen_late_p99_ms", Json::Float(stats::quantile(&late, 0.99))),
            (
                "gen_late_max_ms",
                Json::Float(late.last().copied().unwrap_or(0.0)),
            ),
            ("cut_short", Json::Bool(self.cut_short)),
            ("backlog_grew", Json::Bool(self.backlog_grew)),
            ("held", Json::Bool(self.held)),
            ("makespan_s", Json::Float(self.makespan_s)),
        ])
    }
}

/// A live server with its control client and the load connection.
struct Rig {
    server: Server,
    control: Client,
    load: TcpStream,
}

fn start_rig() -> std::io::Result<Rig> {
    let server = Server::start(ServerConfig::default())?;
    let addr = server.local_addr().to_string();
    let control = Client::connect(&addr)?;
    let load = TcpStream::connect(&addr)?;
    load.set_nodelay(true)?;
    Ok(Rig {
        server,
        control,
        load,
    })
}

/// Ping over both connections, so each is known to be accepted and
/// served before the timed window. Kept out of `setup_s`: the server's
/// accept loop polls every 10 ms, which would add a uniform 0–10 ms to
/// every set-up reading.
fn ping_both(rig: &mut Rig) -> Result<(), String> {
    rig.control.ping().map_err(|e| e.to_string())?;
    let ping = serde_json::to_string(&Request::Ping).expect("requests serialize");
    write_frame(&mut rig.load, ping.as_bytes()).map_err(|e| e.to_string())?;
    let frame = read_frame(&mut rig.load)
        .map_err(|e| e.to_string())?
        .ok_or("server closed the load connection")?;
    match serde_json::from_str::<Response>(&String::from_utf8_lossy(&frame)) {
        Ok(Response::Pong) => Ok(()),
        other => Err(format!("expected Pong, got {other:?}")),
    }
}

/// Sleep to within [`SPIN`] of `t`, then spin: a sleeping thread wakes
/// late by the host's wake-up latency, which would otherwise count in
/// every request's latency as generator lateness.
fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now() + SPIN) {
        thread::sleep(d);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

pub fn run(seed: u64, seconds: f64, limit_ms: f64, tracer: &Arc<Tracer>) -> Pass {
    let mut pass = Pass::default();
    let inputs = Inputs::generate(seed, seconds);

    // Set-up, repeated: start the server and connect.
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let rig = match start_rig() {
            Ok(r) => r,
            Err(e) => {
                pass.check(false, || format!("server start: {e}"));
                return pass;
            }
        };
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 == SETUP_REPEATS {
            live = Some(rig);
        } else {
            drop(rig.load);
            drop(rig.control);
            rig.server.stop();
        }
    }
    let mut rig = live.expect("at least one set-up");
    if let Err(e) = ping_both(&mut rig) {
        pass.check(false, || format!("server does not answer: {e}"));
        return pass;
    }
    let Rig {
        server,
        mut control,
        load,
    } = rig;

    // Input self-checks (untimed).
    pass.check(
        Inputs::generate(seed, seconds).digest() == inputs.digest(),
        || "the inputs are not a pure function of the seed".into(),
    );
    let other = Inputs::generate(seed.wrapping_add(1), seconds);
    pass.check(
        other.specs.len() == inputs.specs.len() && other.schedule == inputs.schedule,
        || "another seed changed the number of requests or the schedule".into(),
    );
    pass.check(other.digest() != inputs.digest(), || {
        "another seed produced the same inputs".into()
    });
    let interner = PatternInterner::default();
    let canon: HashSet<String> = inputs
        .specs
        .iter()
        .map(|s| {
            s.to_custom(&interner)
                .map(|c| c.canonical())
                .unwrap_or_default()
        })
        .collect();
    let patterns: HashSet<&Vec<Coord>> = inputs.specs.iter().map(|s| &s.faults).collect();
    pass.check(
        canon.len() == inputs.specs.len() && patterns.len() == inputs.specs.len(),
        || "specs are not pairwise distinct in canonical form and fault pattern".into(),
    );
    pass.check(inputs.specs.iter().all(|s| s.shards == 1), || {
        "a spec sets shards".into()
    });

    // A seeded sample of the nominal windows (which every run sends in
    // full) is re-run in process afterwards.
    let total = inputs.specs.len();
    let nominal_ids: Vec<u64> = inputs
        .schedule
        .iter()
        .filter(|s| s.kind == Kind::Nominal)
        .flat_map(|s| s.first as u64 + 1..=(s.first + s.requests) as u64)
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let shared = Arc::new(Shared {
        epoch: Instant::now(),
        slots: (0..total).map(|_| Slot::default()).collect(),
        answered: AtomicU64::new(0),
        kept: (0..RECHECKS)
            .map(|_| nominal_ids[rng.gen_range(0..nominal_ids.len())])
            .collect(),
    });
    let root = tracer.new_id();
    let window_start = Instant::now();
    let reader_handle = {
        let stream = load.try_clone().expect("clone the load connection");
        let shared = shared.clone();
        let tracer = tracer.clone();
        thread::Builder::new()
            .name("wormbench-reader".into())
            .spawn(move || reader(stream, shared, tracer, root))
            .expect("spawn the reader")
    };

    // The open loop.
    let mut writer = load;
    let mut encode_ns: Vec<u64> = Vec::with_capacity(total);
    let mut steps: Vec<StepResult> = Vec::new();
    let mut sent = 0u64;
    for step in &inputs.schedule {
        let start = Instant::now() + Duration::from_millis(1);
        let interval = 1.0 / step.rate;
        let mut backlog = Vec::with_capacity(step.requests);
        let mut cut_short = false;
        let mut index = step.first;
        for j in 0..step.requests {
            let due = start + Duration::from_secs_f64(j as f64 * interval);
            sleep_until(due);
            let outstanding = sent - shared.answered.load(Ordering::Acquire);
            if outstanding >= BACKLOG_CAP {
                cut_short = true;
                break;
            }
            backlog.push(outstanding);
            let id = index as u64 + 1;
            let slot = &shared.slots[index];
            slot.due.store(shared.ns(due), Ordering::Relaxed);
            let t_enc = Instant::now();
            let req = Request::Run {
                id,
                spec: inputs.specs[index].clone(),
            };
            let json = serde_json::to_string(&req).expect("requests serialize");
            let t_send = Instant::now();
            encode_ns.push((t_send - t_enc).as_nanos() as u64);
            slot.span.store(tracer.new_id(), Ordering::Relaxed);
            slot.sent.store(shared.ns(t_send), Ordering::Release);
            tracer.record(tracer.new_id(), "client.encode", root, id, t_enc, t_send);
            if let Err(e) = write_frame(&mut writer, json.as_bytes()) {
                pass.check(false, || format!("sending request {id}: {e}"));
                cut_short = true;
                break;
            }
            sent += 1;
            index += 1;
        }
        // Drain: wait for every answer of this step.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while shared.answered.load(Ordering::Acquire) < sent && Instant::now() < deadline {
            thread::sleep(Duration::from_micros(200));
        }
        steps.push(evaluate(
            *step,
            &shared,
            step.first..index,
            &backlog,
            cut_short,
            limit_ms,
        ));
    }
    let _ = writer.flush();
    let _ = writer.shutdown(Shutdown::Write);
    let window_end = Instant::now();
    let out = reader_handle.join().expect("reader thread panicked");
    tracer.record(root, "bench.serve_pass", ROOT, 0, window_start, window_end);

    // Scrape the server, then stop it.
    let scraped = control
        .metrics()
        .and_then(|(snap, _)| Ok((snap, control.stats()?)));
    drop(control);
    let final_stats = server.stop();
    let (snapshot, stats) = match scraped {
        Ok(s) => s,
        Err(e) => {
            pass.check(false, || format!("scraping metrics: {e}"));
            (MetricsSnapshot::default(), final_stats)
        }
    };

    // Every request answered, correctly.
    pass.attempted += sent;
    let sent_slots = || steps.iter().flat_map(|s| &shared.slots[s.sent.clone()]);
    let mut unanswered = 0;
    for slot in sent_slots() {
        match slot.status.load(Ordering::Acquire) {
            OK => {}
            PENDING => unanswered += 1,
            _ => pass.failed += 1,
        }
    }
    pass.failed += unanswered;
    if unanswered > 0 {
        pass.problems
            .push(format!("{unanswered} requests never answered"));
    }
    pass.problems.extend(out.problems.iter().take(20).cloned());

    // The server's bookkeeping agrees with what was sent, and nothing was
    // shared between requests.
    let rejects = stats.quota_rejects
        + stats.backpressure_rejects
        + stats.bad_spec_rejects
        + stats.config_rejects
        + stats.internal_errors;
    pass.check(stats.requests == sent && stats.completed == sent, || {
        format!(
            "server saw {} requests and completed {}, but {sent} were sent",
            stats.requests, stats.completed
        )
    });
    pass.check(rejects == 0 && stats.integrity_drops == 0, || {
        format!("server rejects or integrity drops: {stats:?}")
    });
    pass.check(
        stats.cache_hits == 0 && stats.dedup_joins == 0 && stats.jobs_run == sent,
        || format!("distinct specs hit the cache or dedup: {stats:?}"),
    );
    let answered_hist = snapshot
        .histogram("wormsim_request_latency_seconds")
        .map_or(0, |h| h.count);
    pass.check(answered_hist == sent, || {
        format!("request-latency histogram counts {answered_hist}, {sent} were answered")
    });

    // Re-run the kept sample in process and byte-compare.
    let mut kept: Vec<u64> = shared.kept.iter().copied().collect();
    kept.sort_unstable();
    for id in &kept {
        pass.attempted += 1;
        let local = inputs.specs[*id as usize - 1]
            .to_custom(&interner)
            .map_err(|e| e.to_string())
            .and_then(|c| run_custom(&c).map_err(|e| e.to_string()))
            .map(|r| serde_json::to_string(&r).expect("report serializes"));
        pass.check(
            matches!((&local, out.kept.get(id)), (Ok(l), Some(s)) if l == s),
            || format!("in-process re-run of request {id} differs from the served report"),
        );
    }

    // End-to-end metrics: each the median over the rounds.
    let of_kind = |kind: Kind, f: fn(&StepResult) -> f64| -> Vec<f64> {
        steps
            .iter()
            .filter(|s| s.step.kind == kind)
            .map(f)
            .collect()
    };
    let p50_ms = median_of(&of_kind(Kind::Nominal, |s| s.p50_ms));
    let p99_ms = median_of(&of_kind(Kind::Nominal, |s| s.tail.value));
    let bursts_s = of_kind(Kind::Burst, |s| s.makespan_s);
    let nominal_pooled = stats::sorted(
        steps
            .iter()
            .filter(|s| s.step.kind == Kind::Nominal)
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect(),
    );
    let max_rps = steps
        .iter()
        .filter(|s| s.held && s.step.kind != Kind::Burst)
        .map(|s| s.step.rate)
        .fold(0.0, f64::max);
    pass.end_to_end = vec![
        metric("setup_s", "s", median_of(&setups)),
        metric("wall_s", "s", median_of(&bursts_s)),
        metric("p50_ms", "ms", p50_ms),
        metric("p99_ms", "ms", p99_ms),
        metric("max_rps", "1/s", max_rps),
    ];
    pass.primary = p50_ms;

    // Per-layer metrics: the server's own histograms (log2 buckets, so
    // estimates) and the client side of the request path.
    let hist = |name: &str, p99: bool| -> f64 {
        snapshot
            .histogram(name)
            .map_or(0.0, |h| (if p99 { h.p99 } else { h.p50 }) as f64 / 1e6)
    };
    let sent_to_answer: Vec<f64> = sent_slots()
        .filter(|s| s.status.load(Ordering::Acquire) == OK)
        .map(|s| {
            let d = s.done.load(Ordering::Relaxed);
            d.saturating_sub(s.sent.load(Ordering::Relaxed)) as f64 / 1e6
        })
        .collect();
    let client_p50 = stats::median(&stats::sorted(sent_to_answer));
    // A burst's requests are all due at once, so their lateness is the
    // time to send the burst, not the generator's.
    let all_late = stats::sorted(
        steps
            .iter()
            .filter(|s| s.step.kind != Kind::Burst)
            .flat_map(|s| s.late_ms.iter().copied())
            .collect(),
    );
    let median_us =
        |ns: &[u64]| stats::median(&stats::sorted(ns.iter().map(|&n| n as f64 / 1e3).collect()));
    let hits = (stats.cache_hits + stats.dedup_joins) as f64;
    let request_p50 = hist("wormsim_request_latency_seconds", false);
    pass.per_layer = vec![
        metric(
            "serve.queue_wait_ms.p50",
            "ms",
            hist("wormsim_queue_wait_seconds", false),
        ),
        metric(
            "serve.queue_wait_ms.p99",
            "ms",
            hist("wormsim_queue_wait_seconds", true),
        ),
        metric(
            "serve.execution_ms.p50",
            "ms",
            hist("wormsim_execution_seconds", false),
        ),
        metric(
            "serve.execution_ms.p99",
            "ms",
            hist("wormsim_execution_seconds", true),
        ),
        metric("serve.request_ms.p50", "ms", request_p50),
        metric(
            "serve.request_ms.p99",
            "ms",
            hist("wormsim_request_latency_seconds", true),
        ),
        metric("serve.client_overhead_ms", "ms", client_p50 - request_p50),
        metric("serve.jobs_run", "count", stats.jobs_run as f64),
        metric("serve.cache_hits", "count", stats.cache_hits as f64),
        metric("serve.dedup_joins", "count", stats.dedup_joins as f64),
        metric("serve.rejects", "count", rejects as f64),
        metric(
            "serve.hit_ratio",
            "ratio",
            hits / (stats.requests.max(1)) as f64,
        ),
        metric("serve.hit_ratio_base", "count", stats.requests as f64),
        metric(
            "serve.response_bytes",
            "B",
            stats::median(&stats::sorted(
                out.result_bytes.iter().map(|&b| b as f64).collect(),
            )),
        ),
        metric("serve.encode_us", "us", median_us(&encode_ns)),
        metric("serve.decode_us", "us", median_us(&out.decode_ns)),
        metric(
            "bench.gen_late_ms.p99",
            "ms",
            stats::quantile(&all_late, 0.99),
        ),
        metric(
            "bench.gen_late_ms.max",
            "ms",
            all_late.last().copied().unwrap_or(0.0),
        ),
    ];

    pass.detail = vec![
        ("latency_limit_ms", Json::Float(limit_ms)),
        ("requests_scheduled", Json::UInt(total as u64)),
        ("requests_sent", Json::UInt(sent)),
        (
            "inputs_digest",
            Json::Str(format!("{:016x}", inputs.digest())),
        ),
        ("setup_samples_s", numbers(&setups)),
        ("burst_makespans_s", numbers(&bursts_s)),
        (
            "nominal_pooled_p50_ms",
            Json::Float(stats::median(&nominal_pooled)),
        ),
        (
            "steps",
            Json::Array(steps.iter().map(StepResult::to_json).collect()),
        ),
        ("rechecked", Json::UInt(kept.len() as u64)),
        (
            "hit_ratio",
            object([
                ("hits_and_joins", Json::Float(hits)),
                ("requests", Json::UInt(stats.requests)),
            ]),
        ),
        ("server_stats", Json::Str(format!("{stats:?}"))),
    ];
    pass
}

/// Judge one step from the slots of the requests it sent.
fn evaluate(
    step: Step,
    shared: &Shared,
    sent: std::ops::Range<usize>,
    backlog: &[u64],
    cut_short: bool,
    limit_ms: f64,
) -> StepResult {
    let slots = &shared.slots[sent.clone()];
    let mut latencies = Vec::with_capacity(slots.len());
    let mut late = Vec::with_capacity(slots.len());
    let mut failed = 0;
    let mut last_done = 0u64;
    for s in slots {
        let due = s.due.load(Ordering::Relaxed);
        late.push(s.sent.load(Ordering::Relaxed).saturating_sub(due) as f64 / 1e6);
        if s.status.load(Ordering::Acquire) == OK {
            let done = s.done.load(Ordering::Relaxed);
            last_done = last_done.max(done);
            latencies.push(done.saturating_sub(due) as f64 / 1e6);
        } else {
            failed += 1;
        }
    }
    let sorted = stats::sorted(latencies);
    let tail = stats::tail(&sorted);
    // By Little's law a queue that keeps up holds about rate × latency
    // requests; more than rate × limit outstanding at the last send means
    // the backlog grew past what the limit allows.
    let backlog_grew = backlog
        .last()
        .is_some_and(|&b| b as f64 > step.rate * limit_ms / 1e3);
    let first_due = slots.first().map_or(0, |s| s.due.load(Ordering::Relaxed));
    StepResult {
        step,
        sent,
        ok: sorted.len(),
        failed,
        p50_ms: stats::median(&sorted),
        tail,
        latencies_ms: sorted,
        late_ms: late,
        cut_short,
        backlog_grew,
        held: !cut_short && !backlog_grew && failed == 0 && tail.value <= limit_ms,
        makespan_s: last_done.saturating_sub(first_due) as f64 / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_the_measuring_time() {
        let s = schedule(45.0);
        assert_eq!(s, schedule(45.0));
        let nominal: Vec<&Step> = s.iter().filter(|s| s.kind == Kind::Nominal).collect();
        assert_eq!(nominal.len(), ROUNDS);
        assert!(nominal
            .iter()
            .all(|s| s.rate == NOMINAL_RPS && s.requests == 126));
        assert_eq!(
            s.iter().filter(|s| s.kind == Kind::Burst).count(),
            LADDER_RPS.len()
        );
        let ladder: Vec<f64> = s
            .iter()
            .filter(|s| s.kind == Kind::Ladder)
            .map(|s| s.rate)
            .collect();
        assert_eq!(ladder, LADDER_RPS);
        for w in s.windows(2) {
            assert_eq!(w[1].first, w[0].first + w[0].requests);
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let a = Inputs::generate(7, 3.0);
        assert_eq!(a.digest(), Inputs::generate(7, 3.0).digest());
        let b = Inputs::generate(8, 3.0);
        assert_eq!(a.specs.len(), b.specs.len());
        assert_ne!(a.digest(), b.digest());
    }
}
