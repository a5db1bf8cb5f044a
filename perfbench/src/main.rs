//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-sources30 --seed 42 --seconds 45 --trace 0
//! ```
//!
//! Generates the workload's inputs from `--seed`, drives the workspace
//! crates through their public functions only, times every call into a
//! layer from outside, checks the outputs, and prints one JSON result as
//! the last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reruns the workload with the benchmark's own
//! spans on and reports the per-layer metrics. See `perfbench/README.md`.

mod client;
mod engine;
mod prov;
mod serve;
mod stats;
mod trace;
mod world;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("facts_per_s", "facts/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p99_ms", "ms"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of the traced run. A layer a workload does not run
/// reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("core.group_ms", "ms"),
    ("core.index_ms", "ms"),
    ("core.groups", "count"),
    ("inc.setup_ms", "ms"),
    ("inc.rounds", "count"),
    ("inc.step_p50_us", "us"),
    ("inc.step_p99_us", "us"),
    ("inc.step_ns_per_live_group", "ns"),
    ("inc.exact_per_live_group", "ratio"),
    ("inc.pruned_frac", "ratio"),
    ("inc.facts_per_round", "count"),
    ("http.read_p50_us", "us"),
    ("http.read_p99_us", "us"),
    ("http.write_ack_p50_us", "us"),
    ("http.write_ack_p99_us", "us"),
    ("http.send_wait_p99_us", "us"),
    ("http.max_rate_rps", "req/s"),
    ("http.reconnects", "count"),
    ("http.sheds", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.late_max_us", "us"),
    ("queue.depth_p99", "count"),
    ("wal.append_batch_p50_us", "us"),
    ("wal.append_batch_p99_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.bytes_per_mutation", "B"),
    ("wal.replay_mut_per_s", "1/s"),
    ("wal.compact_ms", "ms"),
    ("delta.apply_ns", "ns"),
    ("delta.materialize_ms", "ms"),
    ("epoch.incremental_us", "us"),
    ("epoch.full_ms", "ms"),
    ("epoch.full_frac", "ratio"),
    ("epoch.facts_rescored", "count"),
    ("ship.tail_us", "us"),
    ("replica.apply_us", "us"),
    ("replica.epoch_us", "us"),
    ("server.request_p50_us", "us"),
    ("server.request_p99_us", "us"),
    ("server.epoch_p50_us", "us"),
    ("server.epoch_p99_us", "us"),
    ("server.wal_batch_p50_us", "us"),
    ("server.wal_batch_p99_us", "us"),
    ("server.rescore_p50_us", "us"),
    ("server.rescore_p99_us", "us"),
    ("server.view_publish_p50_us", "us"),
    ("server.view_publish_p99_us", "us"),
];

/// Workload names: those `BENCHMARK.json` lists, and `engine-facts1m`,
/// which runs on request only (too noisy to bound; see the README).
const WORKLOADS: [&str; 3] = ["engine-sources30", "engine-facts1m", "serve-mixed"];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 45;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; known: {}", WORKLOADS.join(", ")));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Where a run keeps its files: WAL directories under `work` (removed at
/// exit) and trace output under `out`. Both sit inside the directory the
/// benchmark runs from.
#[derive(Debug)]
pub struct Ctx {
    pub args: Args,
    pub work: PathBuf,
    pub out: PathBuf,
    pub t0: Instant,
    pub duration: Duration,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry fails the run.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each timing.
    pub samples: BTreeMap<&'static str, u64>,
    /// Extra provenance and diagnostics, as `key -> JSON value`.
    pub info: BTreeMap<String, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, value);
        self.samples.insert(name, samples as u64);
    }

    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(message());
        }
    }
}

/// Process peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `[(name, value, samples)]` as a JSON object of `{"value", "samples"}`.
pub fn pairs_json(pairs: &[(&str, f64, usize)]) -> String {
    let items: Vec<String> = pairs
        .iter()
        .map(|&(k, v, n)| format!("{}:{{\"value\":{},\"samples\":{n}}}", json_str(k), json_num(v)))
        .collect();
    format!("{{{}}}", items.join(","))
}

/// Writes the Chrome trace and the self-time table under `ctx.out` and
/// notes where they went.
pub fn write_trace(ctx: &Ctx, trace: &trace::Trace, out: &mut Outcome) -> Result<(), String> {
    let stem = format!("{}-seed{}", ctx.args.workload, ctx.args.seed);
    let json_path = ctx.out.join(format!("trace-{stem}.json"));
    let table_path = ctx.out.join(format!("selftime-{stem}.txt"));
    let table = trace.self_time_text();
    std::fs::write(&json_path, trace.chrome_json())
        .and_then(|()| std::fs::write(&table_path, &table))
        .map_err(|e| format!("writing the trace: {e}"))?;
    eprint!("{table}");
    out.info.insert("trace_file".into(), json_str(&json_path.display().to_string()));
    out.info.insert("self_time_file".into(), json_str(&table_path.display().to_string()));
    out.info.insert("trace_spans".into(), trace.len().to_string());
    out.info.insert("trace_spans_dropped".into(), trace.dropped().to_string());
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn render(ctx: &Ctx, outcome: &mut Outcome) -> Result<String, String> {
    let catalog: &[(&str, &str)] = if ctx.args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, _) in catalog.iter().filter(|(name, _)| *name != "ok_frac") {
        match outcome.metrics.get(name) {
            Some(v) if !v.is_finite() => outcome.errors.push(format!("{name} is not finite")),
            None if !ctx.args.trace => return Err(format!("workload did not measure {name}")),
            _ => {}
        }
    }
    let correct = outcome.errors.is_empty();
    let attempted = outcome.attempted.max(1);
    // A failed output check counts every operation as failed.
    let failed = if correct { outcome.failed } else { attempted };
    outcome.set_n("ok_frac", 1.0 - failed as f64 / attempted as f64, attempted as usize);
    let metrics: Vec<String> = catalog
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\
         \"metrics\":{{{}}}}}",
        metrics.join(",")
    ))
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.args.workload.as_str() {
        "engine-sources30" => engine::run(ctx, &engine::SOURCES30),
        "engine-facts1m" => engine::run(ctx, &engine::FACTS1M),
        "serve-mixed" => serve::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let ctx = Ctx {
        work: root.join(format!("work-{}", std::process::id())),
        out: root.join("out"),
        duration: Duration::from_secs(args.seconds),
        args,
        t0: Instant::now(),
    };
    let result = std::fs::create_dir_all(&ctx.work)
        .and_then(|()| std::fs::create_dir_all(&ctx.out))
        .map_err(|e| format!("creating {}: {e}", root.display()))
        .and_then(|()| run(&ctx));
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.args.workload);
            return ExitCode::from(1);
        }
    };
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let line = match render(&ctx, &mut outcome) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let samples: Vec<String> =
        outcome.samples.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    let info: Vec<String> =
        outcome.info.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    println!("{{\"provenance\":{}}}", prov::collect(&ctx));
    println!("{{\"samples\":{{{}}},\"info\":{{{}}}}}", samples.join(","), info.join(","));
    println!("{line}");
    ExitCode::SUCCESS
}
