//! The serve-mixed workload: a durable primary and one read replica,
//! in-process, on default `ServerConfig`/`ReplicaConfig` apart from
//! `data_dir`, driven over plain HTTP by an open-loop load generator.
//!
//! Set-up journals the facts of the paper's base synthetic world into a
//! WAL directory; a primary boots from a copy of it and a replica catches
//! up. Each live phase ([`MAIN_PHASE`] long) runs on such a fresh pair: it
//! streams further facts of the same world to the primary as
//! `POST /v1/votes` batches while reading visible facts from both
//! servers, in the mix `corroborate_loadgen` recorded in
//! `BENCH_replica.json`; the last one then climbs a fixed ladder of read
//! rates. After each drain, both final views must equal a batch
//! evaluation of that phase's acknowledged mutation stream.
//!
//! The traced run adds client-side spans and then replays the
//! acknowledged client batches through the calls the primary's epoch
//! loop and the replica make, timing each call. The replay batches are
//! the client's batches, not the server's linger batches.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use corroborate_core::dataset::Dataset;
use corroborate_core::ids::FactId;
use corroborate_obs::{Json, NOOP};
use corroborate_serve::replica::{self, ReplicaConfig, ReplicaHandle};
use corroborate_serve::{
    evaluate_batch, start, DeltaDataset, EpochConfig, EpochEngine, EpochMode, Mutation,
    ReplicaCore, ServerConfig, ServerHandle, ShipLog, StdFs, TailResponse, Wal, WalConfig,
};

use crate::client::Conn;
use crate::stats::{ms, us, Samples};
use crate::trace::{SpanBuf, Trace};
use crate::{Ctx, Outcome};

/// Accurate and inaccurate sources of the served world, and its η: the
/// paper's base synthetic world (§6.3.1; `SyntheticConfig::default`).
const SOURCES: (usize, usize) = (8, 2);
const ETA: f64 = 0.02;
/// Candidate facts journalled before the primary boots: the base world's
/// 20,000 (the voteless ones are dropped), so boot replays and fully
/// evaluates the world the paper's synthetic experiments start from. The
/// live phase extends it with the candidates after these.
const PREFILL_CANDIDATES: usize = 20_000;
/// Votes each `POST /v1/votes` carries at least: `corroborate_loadgen`'s
/// ingest batch of 10 votes. A write holds whole facts in generation
/// order, each with all its votes, so every write introduces new facts.
const WRITE_VOTES: usize = 10;
/// The request mix `BENCH_replica.json` records: 5,000 ingest batches and
/// 45,590 reads (read fraction 0.9) in 5.96 s, from four closed-loop
/// connections running as fast as the server answered.
const RECORDED_WRITES: f64 = 5_000.0;
const RECORDED_READS: f64 = 45_590.0;
const RECORDED_SECONDS: f64 = 5.96;
/// The main phase offers the recorded mix at this share of the recorded
/// throughput. The recorded run was saturated; at a quarter of that, an
/// open loop adds little queueing to the service path (an M/M/1 server at
/// utilisation 1/4 waits a third of a service time), so the main phase's
/// latencies and freshness measure the service path and the ladder after
/// it measures where saturation lies. At this rate the default
/// `WalConfig` compacts every few seconds, so the stalls compactions
/// cause fall inside `fresh_p99_ms` rather than at its edge.
const MAIN_SHARE_OF_RECORDED: f64 = 0.25;
/// Share of `--seconds` spent in main phases; the ladder gets the rest.
const MAIN_SHARE: f64 = 0.85;
/// Length of one main phase. A run measures as many as fit in its main
/// share (at least one), each on a fresh boot from the pre-filled
/// journal, so the served dataset grows from the pre-fill for one phase
/// only, whatever `--seconds` is, rather than for all of the main time.
const MAIN_PHASE: Duration = Duration::from_millis(8_500);
/// The ladder: total read rates of `LADDER_RUNGS` rungs, the first
/// `LADDER_FROM` and each `LADDER_STEP` times the last, each held for an
/// equal share of the time after the main phase. Writes go on at the main
/// rate.
const LADDER_FROM: f64 = 40_000.0;
const LADDER_STEP: f64 = 1.1;
const LADDER_RUNGS: usize = 8;
/// A rung passes when the reads due in its last tenth were answered
/// within this (median latency from due): the system kept up with the
/// rate. A burst of outside noise earlier in the rung does not fail it; a
/// growing backlog does ...
const BACKLOG_LIMIT_US: f64 = 50_000.0;
/// ... nothing fails, and the ingest queue stays below this depth.
const QUEUE_DEPTH_LIMIT: f64 = 1_024.0;
/// The generator's own lateness (time past a due instant while the
/// connection was free) above which the run is invalid. Bursts of CPU
/// steal on the shared machine reach a p99 of several milliseconds and a
/// max of tens; a generator that cannot keep its schedule goes far past.
const LATE_P99_LIMIT_US: f64 = 25_000.0;
const LATE_MAX_LIMIT_US: f64 = 1_000_000.0;
/// Boots behind `setup_s`; the first ones serve the live phases.
const SETUP_REPS: usize = 15;
/// Mutations per frame when journalling the pre-filled WAL: the primary's
/// default `epoch_max_batch`, the largest batch its epoch loop journals
/// as one frame.
const JOURNAL_BATCH: usize = 4096;
/// Worlds behind `facts_per_s` (worlds of the served size drawn from the
/// seed), and batch evaluations of each (a world's time is its fastest).
const EVAL_WORLDS: u64 = 12;
const EVAL_REPS: usize = 5;
/// How long boot catch-up and drain may take before the run fails.
const WAIT_LIMIT: Duration = Duration::from_secs(60);
/// Acked client batches the traced run replays. Each replayed batch is
/// its own epoch, which the live server spreads over its linger window,
/// so replaying all of them would take several times the live phase.
const REPLAY_BATCHES: usize = 500;
/// Interval between queue-depth samples.
const DEPTH_EVERY: Duration = Duration::from_millis(10);

/// Offered writes per second, through every phase.
fn write_rate() -> f64 {
    RECORDED_WRITES / RECORDED_SECONDS * MAIN_SHARE_OF_RECORDED
}

/// Offered reads per second in the main phase, split evenly between the
/// primary and the replica.
fn main_read_rate() -> f64 {
    RECORDED_READS / RECORDED_SECONDS * MAIN_SHARE_OF_RECORDED
}

/// One `POST /v1/votes` batch: its body and the mutations the server
/// parses from it, in the order it applies them.
struct Write {
    body: String,
    mutations: Vec<Mutation>,
    /// Fact index one past the batch's last fact.
    end: usize,
}

/// The world split into the pre-filled journal and the streamed writes.
struct World {
    ds: Dataset,
    /// Facts the pre-fill journals.
    prefill_facts: usize,
    prefill: Vec<Mutation>,
    writes: Vec<Write>,
}

impl World {
    /// Facts the pre-fill and every write introduce.
    fn facts(&self) -> usize {
        self.writes.last().map_or(self.prefill_facts, |w| w.end)
    }
}

fn fact_mutations(ds: &Dataset, f: FactId) -> (Mutation, Vec<Mutation>) {
    let name = ds.fact_name(f).to_string();
    let label = ds.ground_truth().map(|t| t.label(f));
    let casts = ds
        .votes()
        .votes_on(f)
        .iter()
        .map(|sv| Mutation::Cast {
            source: ds.source_name(sv.source).to_string(),
            fact: name.clone(),
            vote: sv.vote,
        })
        .collect();
    (Mutation::AddFact { name, label }, casts)
}

fn write_body(mutations: &[Mutation]) -> String {
    let mut facts = Vec::new();
    let mut votes = Vec::new();
    for m in mutations {
        match m {
            Mutation::AddFact { name, label } => facts.push(format!(
                "{{\"name\":\"{name}\",\"label\":{}}}",
                label.map_or("null".to_string(), |l| l.as_bool().to_string())
            )),
            Mutation::Cast { source, fact, vote } => votes.push(format!(
                "{{\"source\":\"{source}\",\"fact\":\"{fact}\",\"vote\":\"{}\"}}",
                vote.symbol()
            )),
            Mutation::AddSource { .. } => {}
        }
    }
    format!("{{\"facts\":[{}],\"votes\":[{}]}}", facts.join(","), votes.join(","))
}

/// Candidate facts to draw for the pre-fill and `n_writes` writes. Every
/// kept fact has at least one vote, so one candidate per streamed vote
/// leaves a wide margin for the voteless ones.
fn candidates(n_writes: usize) -> usize {
    PREFILL_CANDIDATES + n_writes * WRITE_VOTES
}

/// The candidate index in a generated fact's name, `f{i}`.
fn candidate_of(name: &str) -> Option<usize> {
    name.strip_prefix('f')?.parse().ok()
}

fn build_world(seed: u64, n_writes: usize) -> Result<World, String> {
    let ds = crate::world::generate(SOURCES.0, SOURCES.1, candidates(n_writes), ETA, seed)?;
    let n = ds.n_facts();
    let prefill_facts = ds
        .facts()
        .position(|f| candidate_of(ds.fact_name(f)).is_none_or(|i| i >= PREFILL_CANDIDATES))
        .unwrap_or(n);
    let mut prefill: Vec<Mutation> =
        ds.sources().map(|s| Mutation::AddSource { name: ds.source_name(s).to_string() }).collect();
    for i in 0..prefill_facts {
        let (add, casts) = fact_mutations(&ds, FactId::new(i));
        prefill.push(add);
        prefill.extend(casts);
    }
    let mut writes = Vec::with_capacity(n_writes);
    let mut next = prefill_facts;
    while writes.len() < n_writes {
        let (mut adds, mut casts) = (Vec::new(), Vec::new());
        while casts.len() < WRITE_VOTES {
            if next == n {
                return Err(format!("world has {n} facts, too few for {n_writes} writes"));
            }
            let (add, c) = fact_mutations(&ds, FactId::new(next));
            adds.push(add);
            casts.extend(c);
            next += 1;
        }
        // The server applies a body's facts before its votes.
        adds.extend(casts);
        writes.push(Write { body: write_body(&adds), mutations: adds, end: next });
    }
    Ok(World { ds, prefill_facts, prefill, writes })
}

/// Journals the pre-fill into `dir`; returns the last sequence number.
fn journal(dir: &Path, prefill: &[Mutation]) -> Result<u64, String> {
    let (mut wal, _) = Wal::open(dir, WalConfig::default()).map_err(|e| format!("wal: {e}"))?;
    for chunk in prefill.chunks(JOURNAL_BATCH) {
        wal.append_batch(chunk).map_err(|e| format!("journal: {e}"))?;
    }
    wal.flush().map_err(|e| format!("journal flush: {e}"))?;
    Ok(wal.next_seq() - 1)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let limit = Instant::now() + WAIT_LIMIT;
    while !done() {
        if Instant::now() > limit {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    Ok(())
}

/// Boots a primary on a copy of the pre-filled journal plus a replica,
/// and waits until the replica has caught up. Returns the boot time and
/// the part of it `start` took.
fn boot(
    ctx: &Ctx,
    template: &Path,
    last_seq: u64,
    k: usize,
) -> Result<(ServerHandle, ReplicaHandle, Duration, Duration), String> {
    let pdir = ctx.work.join(format!("primary-{k}"));
    let rdir = ctx.work.join(format!("replica-{k}"));
    copy_dir(template, &pdir)?;
    let t0 = Instant::now();
    let primary = start(ServerConfig { data_dir: Some(pdir), ..ServerConfig::default() })
        .map_err(|e| format!("primary start: {e}"))?;
    let started = t0.elapsed();
    let replica = replica::start(ReplicaConfig {
        primary: primary.addr().to_string(),
        data_dir: Some(rdir),
        ..ReplicaConfig::default()
    })
    .map_err(|e| format!("replica start: {e}"))?;
    wait_for("replica catch-up", || replica.caught_up() && replica.applied_seq() >= last_seq)?;
    Ok((primary, replica, t0.elapsed(), started))
}

/// Stops the replica, then the primary (each runs its final full epoch).
fn stop(primary: ServerHandle, replica: ReplicaHandle) -> Result<(u64, u64), String> {
    let r = replica.shutdown().map_err(|e| format!("replica shutdown: {e}"))?;
    let p = primary.shutdown().map_err(|e| format!("primary shutdown: {e}"))?;
    Ok((p.fingerprint(), r.fingerprint()))
}

/// A phase of the live run: offsets from its start and the total read
/// rate. Phase 0 is the main phase, the rest are ladder rungs.
#[derive(Debug, Clone, Copy)]
struct Phase {
    from: Duration,
    to: Duration,
    read_rate: f64,
}

impl Phase {
    /// Where the phase's last tenth starts.
    fn last_tenth(&self) -> Duration {
        self.to - (self.to - self.from) / 10
    }
}

/// A main phase of length `main`, then the ladder over `ladder` (none
/// when `ladder` is zero).
fn phases(main: Duration, ladder: Duration) -> Vec<Phase> {
    let rung = ladder / LADDER_RUNGS as u32;
    let mut out = vec![Phase { from: Duration::ZERO, to: main, read_rate: main_read_rate() }];
    let mut rate = LADDER_FROM;
    for i in 0..if ladder.is_zero() { 0 } else { LADDER_RUNGS } {
        let from = main + rung * i as u32;
        out.push(Phase { from, to: from + rung, read_rate: rate });
        rate *= LADDER_STEP;
    }
    out
}

fn phase_at(phases: &[Phase], offset: Duration) -> usize {
    phases.iter().rposition(|p| p.from <= offset).unwrap_or(0)
}

/// One main-phase request as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Req {
    write: bool,
    ok: bool,
    /// Due instant to response, µs.
    latency_us: f64,
    /// Due instant to request written, µs.
    send_wait_us: f64,
    /// Time past the due instant while the connection was free, µs.
    late_us: f64,
}

/// One ladder rung as a generator thread saw it, aggregated in place.
#[derive(Debug, Default, Clone)]
struct Rung {
    requests: u64,
    reads: u64,
    failed: u64,
    /// Latency from due of the reads due in the rung's last tenth, µs.
    tail: Samples,
}

/// What one load thread did.
struct Load {
    /// Every main-phase request.
    main: Vec<Req>,
    /// One entry per ladder rung.
    rungs: Vec<Rung>,
    acked: Vec<usize>,
    sheds: u64,
    reconnects: u64,
    bad_reads: Vec<String>,
    spans: SpanBuf,
}

impl Load {
    fn attempted(&self) -> u64 {
        self.main.len() as u64 + self.rungs.iter().map(|r| r.requests).sum::<u64>()
    }

    fn failed(&self) -> u64 {
        self.main.iter().filter(|r| !r.ok).count() as u64
            + self.rungs.iter().map(|r| r.failed).sum::<u64>()
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Read,
    Write(usize),
}

/// The open-loop schedule of one connection, computed as it is walked:
/// its `share` of each phase's reads, plus the first `writes` writes.
struct Schedule<'a> {
    phases: &'a [Phase],
    share: f64,
    phase: usize,
    /// Next read within the phase.
    read: u64,
    write: usize,
    writes: usize,
}

impl Iterator for Schedule<'_> {
    type Item = (Duration, Event);

    fn next(&mut self) -> Option<Self::Item> {
        let read = loop {
            let p = self.phases.get(self.phase)?;
            let due =
                p.from + Duration::from_secs_f64(self.read as f64 / (p.read_rate * self.share));
            if due < p.to {
                break due;
            }
            self.phase += 1;
            self.read = 0;
        };
        let write = Duration::from_secs_f64(self.write as f64 / write_rate());
        if self.write < self.writes && write <= read {
            self.write += 1;
            Some((write, Event::Write(self.write - 1)))
        } else {
            self.read += 1;
            Some((read, Event::Read))
        }
    }
}

/// Waits for `due`: sleeps to just short of it, then spins. The sleep
/// ends about a timer slack (50 µs) early, so the spin is short and the
/// generator leaves the servers' CPUs mostly idle.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_micros(100) {
        std::thread::sleep(due - now - Duration::from_micros(70));
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

struct Shared<'a> {
    world: &'a World,
    phases: &'a [Phase],
    /// Start of the live phase; due instants count from here.
    t0: Instant,
    /// Origin of span timestamps, shared by every repetition.
    trace_t0: Instant,
    /// Facts (by index) known visible on both servers.
    visible: &'a AtomicUsize,
    /// Set once a ladder rung ends with a backlog past the limit; the
    /// generators then stop.
    saturated: &'a AtomicBool,
    traced: bool,
}

/// One load-generator thread with one keep-alive connection.
fn load_thread(
    sh: &Shared<'_>,
    addr: std::net::SocketAddr,
    events: Schedule<'_>,
    mut rng: u64,
    tid: u32,
    acks: Option<mpsc::Sender<(usize, Instant)>>,
) -> Load {
    let mut conn = Conn::new(addr);
    let mut load = Load {
        main: Vec::new(),
        rungs: vec![Rung::default(); sh.phases.len() - 1],
        acked: Vec::new(),
        sheds: 0,
        reconnects: 0,
        bad_reads: Vec::new(),
        spans: SpanBuf::new(sh.traced, sh.trace_t0, tid),
    };
    let mut prev_done = sh.t0;
    let mut phase = 0;
    for (n, (offset, event)) in events.enumerate() {
        let due = sh.t0 + offset;
        wait_until(due);
        if sh.saturated.load(Ordering::Acquire) {
            break;
        }
        let begin = Instant::now();
        let late = begin.saturating_duration_since(due.max(prev_done));
        let mut read = None;
        let result = match event {
            Event::Read => {
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let visible = sh.visible.load(Ordering::Acquire);
                let name = sh.world.ds.fact_name(FactId::new((rng >> 33) as usize % visible));
                read = Some(name);
                conn.request("GET", &format!("/v1/facts/{name}"), b"")
            }
            Event::Write(w) => {
                conn.request("POST", "/v1/votes", sh.world.writes[w].body.as_bytes())
            }
        };
        let done = Instant::now();
        prev_done = done;
        // Outside the timed interval: classify and check the response.
        let ok = match (&result, event, read) {
            (Ok(r), Event::Read, Some(name)) if r.status == 200 => {
                match check_read(&r.body, name) {
                    Ok(()) => true,
                    Err(e) => {
                        if load.bad_reads.len() < 5 {
                            load.bad_reads.push(e);
                        }
                        false
                    }
                }
            }
            (Ok(r), Event::Write(w), _) if r.status == 202 => {
                load.acked.push(w);
                if let Some(tx) = &acks {
                    let _ = tx.send((w, done));
                }
                true
            }
            (Ok(r), _, _) => {
                load.sheds += u64::from(r.status == 429);
                false
            }
            (Err(_), _, _) => false,
        };
        let written = result.map_or(done, |r| r.written);
        let write = matches!(event, Event::Write(_));

        let now_phase = phase_at(sh.phases, offset);
        if now_phase != phase {
            // A rung ended: a backlog in its last tenth means the system
            // is saturated, and staying there would only make it shed.
            if phase > 0 && load.rungs[phase - 1].tail.median() > BACKLOG_LIMIT_US {
                sh.saturated.store(true, Ordering::Release);
            }
            phase = now_phase;
        }
        if phase == 0 {
            let name = if write { "http.write" } else { "http.read" };
            let id = load.spans.record(name, 0, n as u64, due, done);
            load.spans.record("http.send_wait", id, n as u64, due, written);
            load.main.push(Req {
                write,
                ok,
                latency_us: us(done - due),
                send_wait_us: us(written.saturating_duration_since(due)),
                late_us: us(late),
            });
        } else {
            let rung = &mut load.rungs[phase - 1];
            rung.requests += 1;
            rung.failed += u64::from(!ok);
            if !write {
                rung.reads += 1;
                if offset >= sh.phases[phase].last_tenth() {
                    rung.tail.push(us(done - due));
                }
            }
        }
    }
    load.reconnects = conn.reconnects;
    load
}

/// A fact read must be a JSON object naming the fact, with a top-level
/// `probability` in [0, 1]; other fields are ignored.
fn check_read(body: &[u8], name: &str) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "read body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("read of {name} is not JSON ({e}): {text}"))?;
    if doc.get("fact").and_then(Json::as_str) != Some(name) {
        return Err(format!("read of {name} answered {text}"));
    }
    match doc.get("probability").and_then(Json::as_f64) {
        Some(p) if (0.0..=1.0).contains(&p) => Ok(()),
        _ => Err(format!("read of {name} has no probability in [0, 1]: {text}")),
    }
}

/// What the watcher saw: freshness per acked write and queue depths.
struct Watch {
    /// (ack instant from the start of the live phase, ack to visible on
    /// both servers in ms)
    fresh: Vec<(Duration, f64)>,
    /// (phase, queue depth)
    depth: Vec<(usize, f64)>,
    error: Option<String>,
    spans: SpanBuf,
}

fn queue_depth(primary: &ServerHandle) -> Option<f64> {
    primary.metrics_json().get("gauges")?.get("ingest_queue_depth")?.as_f64()
}

/// Follows acked writes until the fact each introduced resolves on both
/// published views, and samples the primary's queue depth.
fn watch(
    sh: &Shared<'_>,
    primary: &ServerHandle,
    replica: &ReplicaHandle,
    acks: mpsc::Receiver<(usize, Instant)>,
    load_done: &AtomicBool,
    tid: u32,
) -> Watch {
    let mut out = Watch {
        fresh: Vec::new(),
        depth: Vec::new(),
        error: None,
        spans: SpanBuf::new(sh.traced, sh.trace_t0, tid),
    };
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next_depth = sh.t0;
    let mut drain_limit = None;
    loop {
        while let Ok(a) = acks.try_recv() {
            pending.push_back(a);
        }
        let now = Instant::now();
        if now >= next_depth && drain_limit.is_none() {
            if let Some(d) = queue_depth(primary) {
                out.depth.push((phase_at(sh.phases, now - sh.t0), d));
            }
            next_depth = now + DEPTH_EVERY;
        }
        if let Some(&(w, acked)) = pending.front() {
            let write = &sh.world.writes[w];
            let name = sh.world.ds.fact_name(FactId::new(write.end - 1));
            if primary.view().fact_by_name(name).is_some()
                && replica.view().fact_by_name(name).is_some()
            {
                let now = Instant::now();
                out.fresh.push((acked - sh.t0, ms(now - acked)));
                out.spans.record("fresh", 0, w as u64, acked, now);
                sh.visible.store(write.end, Ordering::Release);
                pending.pop_front();
                continue;
            }
        }
        if load_done.load(Ordering::Acquire) {
            let limit = *drain_limit.get_or_insert(now + WAIT_LIMIT);
            if pending.is_empty()
                && matches!(acks.try_recv(), Err(mpsc::TryRecvError::Disconnected))
            {
                break;
            }
            if now > limit {
                out.error = Some(format!("{} acked writes never became visible", pending.len()));
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    out
}

/// The fastest of [`EVAL_REPS`] batch evaluations of `ds`, in seconds.
fn fastest_evaluation(ds: &Dataset) -> Result<f64, String> {
    let mut took = Samples::default();
    for _ in 0..EVAL_REPS {
        let s = Instant::now();
        let view = evaluate_batch(ds.clone(), &EpochConfig::default())
            .map_err(|e| format!("evaluate: {e}"))?;
        took.push(s.elapsed().as_secs_f64());
        drop(view);
    }
    Ok(took.q(0.0))
}

/// `server.*`: the live primary's own span histograms, as recorded.
fn server_spans(primary: &ServerHandle, out: &mut Outcome) {
    let doc = primary.metrics_json();
    let spans = doc.get("spans");
    for (key, p50, p99) in [
        ("request", "server.request_p50_us", "server.request_p99_us"),
        ("epoch", "server.epoch_p50_us", "server.epoch_p99_us"),
        ("wal_batch", "server.wal_batch_p50_us", "server.wal_batch_p99_us"),
        ("rescore", "server.rescore_p50_us", "server.rescore_p99_us"),
        ("view_publish", "server.view_publish_p50_us", "server.view_publish_p99_us"),
    ] {
        let h = spans.and_then(|s| s.get(key));
        let get = |k: &str| h.and_then(|h| h.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
        let count = get("count") as usize;
        out.set_n(p50, get("p50_nanos") / 1e3, count);
        out.set_n(p99, get("p99_nanos") / 1e3, count);
    }
}

/// What one live repetition measured.
struct Live {
    phases: Vec<Phase>,
    loads: Vec<Load>,
    watched: Watch,
    acked: Vec<usize>,
    saturated: bool,
    /// Process `VmHWM` when the live phase ended, MiB.
    peak_rss: f64,
    primary_fp: u64,
    replica_fp: u64,
}

/// Drives one booted primary/replica pair through `phases`, then stops
/// both.
fn live(
    ctx: &Ctx,
    world: &World,
    (primary, replica): (ServerHandle, ReplicaHandle),
    phases: Vec<Phase>,
    rep: u32,
    out: &mut Outcome,
) -> Result<Live, String> {
    let traced = ctx.args.trace;
    let seed = ctx.args.seed ^ u64::from(rep).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let visible = AtomicUsize::new(world.prefill_facts);
    let load_done = AtomicBool::new(false);
    let saturated = AtomicBool::new(false);
    let (ack_tx, ack_rx) = mpsc::channel();
    let sh = Shared {
        world,
        phases: &phases,
        t0: Instant::now() + Duration::from_millis(50),
        trace_t0: ctx.t0,
        visible: &visible,
        saturated: &saturated,
        traced,
    };
    let schedule =
        |writes| Schedule { phases: &phases, share: 0.5, phase: 0, read: 0, write: 0, writes };
    // Span buffer ids are unique per thread and repetition.
    let tid = 10 * (rep + 1);
    let (loads, watched) = std::thread::scope(|s| {
        let w = s.spawn(|| watch(&sh, &primary, &replica, ack_rx, &load_done, tid + 4));
        let a = s.spawn(|| {
            let events = schedule(world.writes.len());
            load_thread(&sh, primary.addr(), events, seed ^ 1, tid + 2, Some(ack_tx))
        });
        let b = s.spawn(|| load_thread(&sh, replica.addr(), schedule(0), seed ^ 2, tid + 3, None));
        let loads = [a.join(), b.join()];
        load_done.store(true, Ordering::Release);
        (loads, w.join())
    });
    let mut loads: Vec<Load> = loads
        .into_iter()
        .map(|l| l.map_err(|_| "load thread panicked".to_string()))
        .collect::<Result<_, _>>()?;
    let watched = watched.map_err(|_| "watcher panicked".to_string())?;
    let peak_rss = crate::peak_rss_mb();
    if traced && phases.len() > 1 {
        server_spans(&primary, out);
    }
    let doc = primary.metrics_json();
    let counter = |k: &str| {
        let v = doc.get("counters").and_then(|c| c.get(k)).and_then(Json::as_f64);
        v.unwrap_or(0.0)
    };
    out.info.insert(
        format!("primary_counters_{rep}"),
        format!(
            "{{\"epochs\":{},\"epochs_full\":{},\"wal_batches\":{},\"snapshots_written\":{}}}",
            counter("epochs"),
            counter("epochs_full"),
            counter("wal_batches"),
            counter("snapshots_written")
        ),
    );
    let (primary_fp, replica_fp) = stop(primary, replica)?;
    let acked = std::mem::take(&mut loads[0].acked);
    Ok(Live {
        phases,
        loads,
        watched,
        acked,
        saturated: saturated.load(Ordering::Acquire),
        peak_rss,
        primary_fp,
        replica_fp,
    })
}

/// The state the acked stream of a repetition built: the pre-fill plus
/// every acked write, in order.
fn reference(world: &World, acked: &[usize]) -> Result<Dataset, String> {
    let mut delta = DeltaDataset::new();
    delta.apply_all(&world.prefill).map_err(|e| format!("reference: {e}"))?;
    for &w in acked {
        delta.apply_all(&world.writes[w].mutations).map_err(|e| format!("reference: {e}"))?;
    }
    delta.materialize().map_err(|e| format!("materialize: {e}"))
}

/// The ladder over the rungs of `live`: the highest offered rate whose
/// rung met the limits, interpolated into the next rung when that one
/// missed only the backlog limit. A rung failed by a burst of outside
/// noise below a passing one does not cap the rate; past saturation the
/// backlog fails every later rung. Returns the rate and the rungs as
/// JSON.
fn ladder(live: &Live) -> (f64, String) {
    let mut rungs = Vec::new();
    let mut results = Vec::new();
    for (i, p) in live.phases.iter().enumerate().skip(1) {
        let mut rung = Rung::default();
        for r in live.loads.iter().map(|l| &l.rungs[i - 1]) {
            rung.requests += r.requests;
            rung.reads += r.reads;
            rung.failed += r.failed;
            for &v in r.tail.values() {
                rung.tail.push(v);
            }
        }
        let mut depth = Samples::default();
        for &(_, d) in live.watched.depth.iter().filter(|(ph, _)| *ph == i) {
            depth.push(d);
        }
        let (backlog, tail_p99, max_depth) = (rung.tail.median(), rung.tail.q(0.99), depth.max());
        // A rung cut short by saturation has no last tenth: it fails.
        let healthy = rung.failed == 0 && max_depth < QUEUE_DEPTH_LIMIT && rung.tail.len() > 0;
        let pass = healthy && backlog <= BACKLOG_LIMIT_US;
        let offered = p.read_rate + write_rate();
        results.push((offered, backlog, healthy, pass));
        rungs.push(format!(
            "{{\"offered_rps\":{offered},\"backlog_us\":{backlog},\"last_tenth_p99_us\":{tail_p99},\
             \"reads\":{},\"failed\":{},\"queue_depth_max\":{max_depth},\"pass\":{pass}}}",
            rung.reads, rung.failed
        ));
    }
    let max_rate = match results.iter().rposition(|r| r.3) {
        None => 0.0,
        Some(h) => {
            let (rate, low, _, _) = results[h];
            match results.get(h + 1) {
                Some(&(next, high, true, false)) => {
                    rate + (next - rate) * (BACKLOG_LIMIT_US - low) / (high - low)
                }
                _ => rate,
            }
        }
    };
    (max_rate, format!("[{}]", rungs.join(",")))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let seed = ctx.args.seed;
    let traced = ctx.args.trace;
    // As many main phases as fit in MAIN_SHARE of the run; the last one
    // is followed by the ladder, which gets the rest of the run.
    let share = ctx.duration.mul_f64(MAIN_SHARE);
    let live_reps = (share.as_millis() / MAIN_PHASE.as_millis()).max(1) as u32;
    let main = share.min(MAIN_PHASE);
    let ladder_time = ctx.duration - main * live_reps;
    let n_writes = ((main + ladder_time).as_secs_f64() * write_rate()).ceil() as usize;
    let world = build_world(seed, n_writes)?;
    let template = ctx.work.join("prefill");
    let last_seq = journal(&template, &world.prefill)?;
    let mut out = Outcome::default();
    out.info.insert("prefill_facts".into(), world.prefill_facts.to_string());
    out.info.insert("prefill_mutations".into(), world.prefill.len().to_string());
    out.info.insert("offered_writes_per_s".into(), write_rate().to_string());
    out.info.insert("offered_main_reads_per_s".into(), main_read_rate().to_string());

    // facts_per_s: the median over EVAL_WORLDS worlds of the size the last
    // repetition serves, drawn from the seed, of each world's facts ÷ its
    // fastest of EVAL_REPS batch evaluations. The worlds are evaluated in
    // three groups (before set-up, after the live phases and boots, after
    // the output checks) so they sample several moments of the run.
    let prefix: Vec<FactId> = (0..world.facts()).map(FactId::new).collect();
    let mut eval_rates = Samples::default();
    let mut evaluate_worlds = |worlds: std::ops::Range<u64>| -> Result<(), String> {
        for j in worlds {
            let seed_j = seed ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let ds =
                crate::world::generate(SOURCES.0, SOURCES.1, candidates(n_writes), ETA, seed_j)?;
            let ds = ds
                .project_facts(&prefix[..prefix.len().min(ds.n_facts())])
                .map_err(|e| format!("project: {e}"))?;
            eval_rates.push(ds.n_facts() as f64 / fastest_evaluation(&ds)?);
        }
        Ok(())
    };
    let third = EVAL_WORLDS / 3;
    evaluate_worlds(1..1 + third)?;

    // The live repetitions, each on a fresh boot from the pre-filled
    // journal (a boot is one set-up sample). The peak resident set is
    // read when the first live phase ends, with one pair of servers up;
    // its part before the first boot is the benchmark's own (world, write
    // bodies, batch evaluations).
    out.info.insert("peak_rss_before_boot_mb".into(), crate::peak_rss_mb().to_string());
    // The boots that only set up follow the live phases, an equal share
    // after each, so the set-up samples spread over the run.
    let (mut setup, mut primary_start) = (Samples::default(), Samples::default());
    let mut lives = Vec::new();
    let reps = live_reps as usize;
    let extra = SETUP_REPS.saturating_sub(reps);
    for rep in 0..reps {
        let (primary, replica, took, started) = boot(ctx, &template, last_seq, rep)?;
        setup.push(took.as_secs_f64());
        primary_start.push(started.as_secs_f64());
        let last = rep + 1 == reps;
        let phases = phases(main, if last { ladder_time } else { Duration::ZERO });
        lives.push(live(ctx, &world, (primary, replica), phases, rep as u32, &mut out)?);
        for k in extra * rep / reps..extra * (rep + 1) / reps {
            let (primary, replica, took, started) = boot(ctx, &template, last_seq, reps + k)?;
            setup.push(took.as_secs_f64());
            primary_start.push(started.as_secs_f64());
            stop(primary, replica)?;
        }
    }
    out.info.insert("setup_s_each".into(), format!("{:?}", setup.values()));
    out.info.insert("setup_primary_start_s".into(), primary_start.median().to_string());
    evaluate_worlds(1 + third..1 + 2 * third)?;

    // Checks, per repetition: every request succeeded, reads were well
    // formed, and both final views equal a batch evaluation of the acked
    // stream.
    let mut served = None;
    for (rep, l) in lives.iter().enumerate() {
        let (primary_fp, replica_fp) = (l.primary_fp, l.replica_fp);
        let ds = reference(&world, &l.acked)?;
        let view = evaluate_batch(ds.clone(), &EpochConfig::default())
            .map_err(|e| format!("evaluate: {e}"))?;
        let reference_fp = view.fingerprint();
        out.check(primary_fp == replica_fp, || {
            format!("repetition {rep}: primary fingerprint {primary_fp:016x} != replica {replica_fp:016x}")
        });
        out.check(primary_fp == reference_fp, || {
            format!(
                "repetition {rep}: primary fingerprint {primary_fp:016x} != batch evaluation \
                 {reference_fp:016x}"
            )
        });
        if let Some(e) = &l.watched.error {
            out.errors.push(format!("repetition {rep}: {e}"));
        }
        for e in l.loads.iter().flat_map(|l| &l.bad_reads) {
            out.errors.push(format!("repetition {rep}: {e}"));
        }
        out.info.insert(format!("fingerprint_{rep}"), format!("\"{primary_fp:016x}\""));
        out.info.insert(format!("acked_writes_{rep}"), l.acked.len().to_string());
        out.info.insert(format!("final_facts_{rep}"), ds.n_facts().to_string());
        out.attempted += l.loads.iter().map(Load::attempted).sum::<u64>();
        out.failed += l.loads.iter().map(Load::failed).sum::<u64>();
        served = Some(ds);
    }
    evaluate_worlds(1 + 2 * third..1 + EVAL_WORLDS)?;

    // Main-phase figures, each pooled over every repetition's main phase.
    let (mut late, mut send_wait) = (Samples::default(), Samples::default());
    let (mut read_lat, mut write_lat) = (Samples::default(), Samples::default());
    let (mut fresh, mut depth) = (Samples::default(), Samples::default());
    for l in &lives {
        for r in l.loads.iter().flat_map(|l| &l.main) {
            if r.write { &mut write_lat } else { &mut read_lat }.push(r.latency_us);
            late.push(r.late_us);
            send_wait.push(r.send_wait_us);
        }
        for &(at, v) in &l.watched.fresh {
            if at < main {
                fresh.push(v);
            }
        }
        for &(_, d) in l.watched.depth.iter().filter(|(p, _)| *p == 0) {
            depth.push(d);
        }
    }
    out.info.insert(
        "fresh_ms".into(),
        format!(
            "{{\"p90\":{},\"p99\":{},\"p99.9\":{},\"max\":{}}}",
            fresh.q(0.9),
            fresh.q(0.99),
            fresh.q(0.999),
            fresh.max()
        ),
    );
    let (late_p99, late_max) = (late.q(0.99), late.max());
    out.check(late_p99 <= LATE_P99_LIMIT_US && late_max <= LATE_MAX_LIMIT_US, || {
        format!(
            "invalid run: the generator ran late by p99 {late_p99:.0} us, max {late_max:.0} us \
             (limits {LATE_P99_LIMIT_US} / {LATE_MAX_LIMIT_US})"
        )
    });
    let last = lives.last().ok_or("no live repetition")?;
    let (max_rate, rungs) = ladder(last);
    out.info.insert("ladder".into(), rungs);
    out.info.insert("ladder_stopped_early".into(), last.saturated.to_string());
    out.info.insert("generator_late_p99_us".into(), late_p99.to_string());
    out.info.insert("generator_late_max_us".into(), late_max.to_string());

    let end_to_end = [
        ("facts_per_s", eval_rates.median(), EVAL_WORLDS as usize * EVAL_REPS),
        ("setup_s", setup.median(), setup.len()),
        ("peak_rss_mb", lives[0].peak_rss, 1),
        ("fresh_p50_ms", fresh.median(), fresh.len()),
        ("fresh_p99_ms", fresh.q(0.99), fresh.len()),
    ];
    // Request latency from the client's side, timed from when each
    // request was due.
    let http = [
        ("http.read_p50_us", read_lat.median(), read_lat.len()),
        ("http.read_p99_us", read_lat.q(0.99), read_lat.len()),
        ("http.write_ack_p50_us", write_lat.median(), write_lat.len()),
        ("http.write_ack_p99_us", write_lat.q(0.99), write_lat.len()),
    ];
    if !traced {
        out.info.insert("request_latency".into(), crate::pairs_json(&http));
        out.info.insert("max_rate_rps".into(), max_rate.to_string());
        for (name, value, n) in end_to_end {
            out.set_n(name, value, n);
        }
        return Ok(out);
    }

    out.info.insert("traced_end_to_end".into(), crate::pairs_json(&end_to_end));
    for (name, value, n) in http {
        out.set_n(name, value, n);
    }
    out.set_n("http.max_rate_rps", max_rate, last.phases.len() - 1);
    out.set_n("http.send_wait_p99_us", send_wait.q(0.99), send_wait.len());
    let loads = || lives.iter().flat_map(|l| &l.loads);
    out.set("http.reconnects", loads().map(|l| l.reconnects).sum::<u64>() as f64);
    out.set("http.sheds", loads().map(|l| l.sheds).sum::<u64>() as f64);
    out.set_n("loadgen.late_p99_us", late_p99, late.len());
    out.set_n("loadgen.late_max_us", late_max, late.len());
    out.set_n("queue.depth_p99", depth.q(0.99), depth.len());

    let acked = last.acked.clone();
    let mut trace = Trace::default();
    for l in lives {
        for load in l.loads {
            trace.absorb(load.spans);
        }
        trace.absorb(l.watched.spans);
    }
    let mut spans = SpanBuf::new(true, ctx.t0, 5);
    replay(ctx, &template, &world, &acked, &mut spans, &mut out)?;
    let served = served.ok_or("no live repetition")?;
    crate::engine::layers_of(&served, &mut spans, &mut out)?;
    trace.absorb(spans);
    crate::write_trace(ctx, &trace, &mut out)?;
    Ok(out)
}

/// Replays the pre-filled journal and the acked client batches through
/// the calls the primary's epoch loop makes (`Wal::append_batch`,
/// `EpochEngine::apply`, `run_epoch(Auto)`, `Wal::maybe_compact`) and the
/// ones a replica makes (`ShipLog::tail_since`,
/// `ReplicaCore::apply_shipped`, `publish_epoch`), timing each call. The
/// replayed primary and replica must end on the same fingerprint.
fn replay(
    ctx: &Ctx,
    template: &Path,
    world: &World,
    acked: &[usize],
    spans: &mut SpanBuf,
    out: &mut Outcome,
) -> Result<(), String> {
    let err =
        |what: &'static str| move |e: corroborate_serve::ServeError| format!("replay {what}: {e}");
    let pdir = ctx.work.join("replay-primary");
    let rdir = ctx.work.join("replay-replica");
    copy_dir(template, &pdir)?;
    copy_dir(template, &rdir)?;

    let s = Instant::now();
    let (mut wal, recovery) = Wal::open(&pdir, WalConfig::default()).map_err(err("open"))?;
    let e = Instant::now();
    spans.record("wal.open", 0, recovery.replayed, s, e);
    out.set("wal.replay_mut_per_s", recovery.replayed as f64 / (e - s).as_secs_f64());
    let ship = Arc::new(ShipLog::new(64 << 20));
    wal.attach_shipper(Arc::clone(&ship)).map_err(err("attach"))?;
    let mut engine = EpochEngine::from_recovered(recovery.dataset, EpochConfig::default())
        .map_err(err("engine"))?;
    let mut full = Samples::default();
    let s = Instant::now();
    engine.run_epoch(EpochMode::Full).map_err(err("boot epoch"))?;
    let e = Instant::now();
    spans.record("epoch.full", 0, 0, s, e);
    full.push(ms(e - s));
    let (mut core, _) = ReplicaCore::recover(
        &rdir,
        Arc::new(StdFs),
        WalConfig::default(),
        EpochConfig::default(),
        &NOOP,
    )
    .map_err(err("replica recover"))?;

    let (mut append, mut apply_ns, mut incremental, mut compact) =
        (Samples::default(), Samples::default(), Samples::default(), Samples::default());
    let (mut tail, mut replica_apply, mut fsync) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut bytes, mut count, mut rescored, mut epochs) = (0u64, 0u64, Samples::default(), 0usize);
    for (n, &w) in acked.iter().take(REPLAY_BATCHES).enumerate() {
        let batch = &world.writes[w].mutations;
        let arg = n as u64;
        let t_batch = Instant::now();
        let parent = spans.reserve();

        let s = Instant::now();
        let receipt = wal.append_batch(batch).map_err(err("append"))?;
        let e = Instant::now();
        spans.record("wal.append_batch", parent, arg, s, e);
        append.push(us(e - s));
        bytes += receipt.bytes;
        count += receipt.count;
        if let Some(nanos) = receipt.fsync_nanos {
            fsync.push(nanos as f64 / 1e3);
        }

        let s = Instant::now();
        for m in batch {
            // The epoch loop drops a mutation that fails to apply.
            let _ = engine.apply(m);
        }
        let e = Instant::now();
        spans.record("delta.apply", parent, arg, s, e);
        apply_ns.push((e - s).as_nanos() as f64 / batch.len() as f64);

        if engine.pending() > 0 {
            let s = Instant::now();
            let (_, stats) = engine.run_epoch(EpochMode::Auto).map_err(err("epoch"))?;
            let e = Instant::now();
            epochs += 1;
            rescored.push(stats.facts_rescored as f64);
            if stats.full {
                spans.record("epoch.full", parent, arg, s, e);
                full.push(ms(e - s));
            } else {
                spans.record("epoch.incremental", parent, arg, s, e);
                incremental.push(us(e - s));
            }
            let s = Instant::now();
            wal.maybe_compact(engine.delta()).map_err(err("compact"))?;
            let e = Instant::now();
            spans.record("wal.maybe_compact", parent, arg, s, e);
            compact.push(ms(e - s));
        }

        let s = Instant::now();
        let shipped = ship.tail_since(core.applied_seq() + 1, u64::MAX);
        let e = Instant::now();
        spans.record("ship.tail_since", parent, arg, s, e);
        tail.push(us(e - s));
        let TailResponse::Frames { bytes: frames, .. } = shipped else {
            return Err(format!("replay: batch {n} was not in the ship log's tail"));
        };
        let s = Instant::now();
        core.apply_shipped(&frames, &NOOP).map_err(err("replica apply"))?;
        let e = Instant::now();
        spans.record("replica.apply_shipped", parent, arg, s, e);
        replica_apply.push(us(e - s));
        spans.record_reserved(parent, "replay.batch", 0, arg, t_batch, e);
    }

    let s = Instant::now();
    if let Some(nanos) = wal.flush().map_err(err("flush"))? {
        fsync.push(nanos as f64 / 1e3);
    }
    spans.record("wal.flush", 0, 0, s, Instant::now());
    let s = Instant::now();
    let replica_view = core.publish_epoch(EpochMode::Full).map_err(err("replica epoch"))?;
    let e = Instant::now();
    spans.record("replica.publish_epoch", 0, 0, s, e);
    let replica_epoch = e - s;
    let s = Instant::now();
    let (view, _) = engine.run_epoch(EpochMode::Full).map_err(err("final epoch"))?;
    let e = Instant::now();
    spans.record("epoch.full", 0, 0, s, e);
    full.push(ms(e - s));
    out.check(replica_view.fingerprint() == view.fingerprint(), || {
        "replayed replica and primary fingerprints differ".to_string()
    });

    let mut materialize = Samples::default();
    for i in 0..3 {
        let s = Instant::now();
        let ds = engine.delta().materialize().map_err(err("materialize"))?;
        let e = Instant::now();
        drop(ds);
        spans.record("delta.materialize", 0, i, s, e);
        materialize.push(ms(e - s));
    }

    out.set_n("wal.append_batch_p50_us", append.median(), append.len());
    out.set_n("wal.append_batch_p99_us", append.q(0.99), append.len());
    out.set_n("wal.fsync_us", fsync.median(), fsync.len());
    out.set("wal.bytes_per_mutation", bytes as f64 / count.max(1) as f64);
    out.set_n("wal.compact_ms", compact.max(), compact.len());
    out.set_n("delta.apply_ns", apply_ns.median(), apply_ns.len());
    out.set_n("delta.materialize_ms", materialize.median(), materialize.len());
    out.set_n("epoch.incremental_us", incremental.median(), incremental.len());
    out.set_n("epoch.full_ms", full.median(), full.len());
    out.set("epoch.full_frac", full.len() as f64 / (epochs + 2) as f64);
    out.set_n("epoch.facts_rescored", rescored.mean(), rescored.len());
    out.set_n("ship.tail_us", tail.median(), tail.len());
    out.set_n("replica.apply_us", replica_apply.median(), replica_apply.len());
    out.set_n("replica.epoch_us", us(replica_epoch), 1);
    Ok(())
}
