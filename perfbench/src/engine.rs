//! The engine workloads: whole IncEstimate corroborations of a synthetic
//! world, driven through `IncEstimateSession` with the default
//! `IncEstHeu` strategy and the default `IncEstimateConfig`.

use std::time::{Duration, Instant};

use corroborate_algorithms::inc::{IncEstHeu, IncEstimateConfig, IncEstimateSession};
use corroborate_core::dataset::Dataset;
use corroborate_core::groups::group_by_signature;
use corroborate_core::ids::FactId;
use corroborate_core::index::SourceGroupIndex;
use corroborate_obs::{Counter, Observer, RecordingObserver, NOOP};

use crate::stats::{ms, us, Samples, Weighted};
use crate::trace::{SpanBuf, Trace};
use crate::{Ctx, Outcome};

/// One engine workload.
#[derive(Debug)]
pub struct Spec {
    n_accurate: usize,
    n_inaccurate: usize,
    n_facts: usize,
    eta: f64,
    /// Result digest at seed 42 (probability and trust bits plus rounds).
    digest_seed42: u64,
    /// Accuracy against the planted truth every seed must reach.
    accuracy_floor: f64,
    /// `IncEstimateSession::new` repetitions behind `setup_s`: before the
    /// measured corroborations, and after each measured world, so the
    /// samples spread over the run.
    setup_reps: usize,
    setup_per_world: usize,
    /// Repetitions of the standalone grouping and index builds.
    core_reps: usize,
    /// Corroborations of each world.
    runs_per_world: usize,
    /// Fewest worlds a run measures, however long they take.
    min_worlds: u64,
}

/// 24 accurate + 6 inaccurate sources, 20k requested facts: selection
/// over many live groups dominates.
pub const SOURCES30: Spec = Spec {
    n_accurate: 24,
    n_inaccurate: 6,
    n_facts: 20_000,
    eta: 0.02,
    digest_seed42: 0x9479_f426_04b1_7907,
    accuracy_floor: 0.75,
    setup_reps: 21,
    setup_per_world: 3,
    core_reps: 9,
    runs_per_world: 1,
    min_worlds: 4,
};

/// 8 accurate + 2 inaccurate sources, 1M requested facts: grouping and
/// per-fact evaluation dominate.
pub const FACTS1M: Spec = Spec {
    n_accurate: 8,
    n_inaccurate: 2,
    n_facts: 1_000_000,
    eta: 0.02,
    digest_seed42: 0x0d9f_f256_6a06_e340,
    accuracy_floor: 0.75,
    setup_reps: 9,
    setup_per_world: 1,
    core_reps: 5,
    runs_per_world: 3,
    min_worlds: 4,
};

/// The seed whose digest is recorded in [`Spec`].
const DIGEST_SEED: u64 = 42;

/// What one corroboration did.
struct Run {
    total: Duration,
    new: Duration,
    /// Per round: step time, time since `new` returned at the step's end,
    /// facts evaluated, groups live at round start (traced runs only).
    steps: Vec<(Duration, Duration, usize, usize)>,
    rounds: usize,
    digest: u64,
    accuracy: f64,
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

/// One corroboration, `new` through `finish`, timed per call. With
/// `count_live`, the live groups are counted before each step, outside
/// the step's timing.
fn corroborate<O: Observer>(
    ds: &Dataset,
    obs: &O,
    spans: &mut SpanBuf,
    number: u64,
    count_live: bool,
) -> Result<Run, String> {
    let root = spans.reserve();
    let t0 = Instant::now();
    let mut session = IncEstimateSession::with_observer(
        ds,
        IncEstHeu::default(),
        IncEstimateConfig::default(),
        obs,
    )
    .map_err(|e| format!("IncEstimateSession::new: {e}"))?;
    let t_new = Instant::now();
    spans.record("inc.new", root, number, t0, t_new);
    let mut steps = Vec::new();
    loop {
        let live = if count_live { session.state().remaining_groups().count() } else { 0 };
        let s = Instant::now();
        let Some(report) = session.step() else { break };
        let e = Instant::now();
        spans.record("inc.step", root, report.round as u64, s, e);
        steps.push((e - s, e - t_new, report.evaluated.len(), live));
    }
    let result = session.finish().map_err(|e| format!("finish: {e}"))?;
    let end = Instant::now();
    spans.record_reserved(root, "corroboration", 0, number, t0, end);

    let mut digest = 0xcbf2_9ce4_8422_2325;
    for p in result.probabilities() {
        fnv(&mut digest, &p.to_bits().to_le_bytes());
    }
    for t in result.trust().values() {
        fnv(&mut digest, &t.to_bits().to_le_bytes());
    }
    fnv(&mut digest, &(result.rounds() as u64).to_le_bytes());
    let accuracy = result.confusion(ds).map_err(|e| format!("confusion: {e}"))?.accuracy();
    Ok(Run { total: end - t0, new: t_new - t0, steps, rounds: result.rounds(), digest, accuracy })
}

/// Runs the workload: untraced for the end-to-end metrics, traced for
/// the per-layer ones.
pub fn run(ctx: &Ctx, spec: &Spec) -> Result<Outcome, String> {
    let seed = ctx.args.seed;
    let traced = ctx.args.trace;
    let world =
        crate::world::generate(spec.n_accurate, spec.n_inaccurate, spec.n_facts, spec.eta, seed)?;
    let n_facts = world.n_facts();
    let mut out = Outcome::default();
    let mut spans = SpanBuf::new(traced, ctx.t0, 1);

    // Set-up: IncEstimateSession::new, repeated after one untimed call
    // that faults the heap in; the median is setup_s.
    let new_session = |ds| {
        IncEstimateSession::new(ds, IncEstHeu::default(), IncEstimateConfig::default())
            .map_err(|e| format!("IncEstimateSession::new: {e}"))
    };
    drop(new_session(&world)?);
    let mut setup = Samples::default();
    let mut time_setup = |reps: usize, spans: &mut SpanBuf| -> Result<(), String> {
        for _ in 0..reps {
            let s = Instant::now();
            let session = new_session(&world)?;
            let e = Instant::now();
            drop(session);
            spans.record("inc.new", 0, setup.len() as u64, s, e);
            setup.push(ms(e - s));
        }
        Ok(())
    };
    time_setup(spec.setup_reps, &mut spans)?;

    if traced {
        core_layer(&world, spec.core_reps, &mut spans, &mut out);
    }

    // Warm-up corroboration, not timed; its result is checked.
    let warm = corroborate(&world, &NOOP, &mut SpanBuf::new(false, ctx.t0, 0), 0, false)?;
    check_result(&mut out, spec, seed == DIGEST_SEED, &warm, warm.digest);
    out.info.insert("digest".into(), format!("\"{:016x}\"", warm.digest));
    out.info.insert("accuracy".into(), format!("{}", warm.accuracy));
    out.info.insert("facts".into(), n_facts.to_string());
    out.info.insert("rounds".into(), warm.rounds.to_string());

    // Measured: world 0 (the seed's own) and further worlds drawn from
    // the seed, each corroborated `runs_per_world` times, until
    // `--seconds` have passed. A world's figures are those of its fastest
    // corroboration: repeats of a world do the same work, so they differ
    // only by outside noise. The run reports the median over worlds, so
    // neither one sample of facts nor one corroboration slowed from
    // outside sets it.
    let deadline = Instant::now() + ctx.duration;
    let mut rates = Samples::default();
    let (mut exact, mut pruned) = (0u64, 0u64);
    let mut runs: Vec<Run> = Vec::new();
    let mut fastest: Vec<usize> = Vec::new();
    let mut worlds = 0u64;
    loop {
        let generated;
        let ds = if worlds == 0 {
            &world
        } else {
            let world_seed = seed ^ worlds.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            generated = crate::world::generate(
                spec.n_accurate,
                spec.n_inaccurate,
                spec.n_facts,
                spec.eta,
                world_seed,
            )?;
            &generated
        };
        let mut first = (worlds == 0).then_some(warm.digest);
        let from = runs.len();
        for _ in 0..spec.runs_per_world {
            let number = runs.len() as u64 + 1;
            let run = if traced {
                let obs = RecordingObserver::new();
                let run = corroborate(ds, &obs, &mut spans, number, true)?;
                let (e, p) = selection_counts(&obs);
                exact += e;
                pruned += p;
                run
            } else {
                corroborate(ds, &NOOP, &mut spans, number, false)?
            };
            let expected = *first.get_or_insert(run.digest);
            check_result(&mut out, spec, false, &run, expected);
            runs.push(run);
        }
        let best = (from..runs.len()).min_by_key(|&i| runs[i].total).ok_or("no corroboration")?;
        rates.push(ds.n_facts() as f64 / runs[best].total.as_secs_f64());
        fastest.push(best);
        worlds += 1;
        time_setup(spec.setup_per_world, &mut spans)?;
        if worlds >= spec.min_worlds && Instant::now() >= deadline {
            break;
        }
    }
    out.attempted = (setup.len() + 1 + runs.len()) as u64;
    out.info.insert("worlds".into(), worlds.to_string());
    let took: Vec<f64> = runs.iter().map(|r| r.total.as_secs_f64()).collect();
    out.info.insert("corroboration_s".into(), format!("{took:?}"));

    // Freshness percentiles are those of one corroboration, over every
    // fact it evaluated; the run reports their median over the worlds'
    // fastest corroborations.
    let (mut fresh_p50, mut fresh_p99) = (Samples::default(), Samples::default());
    for r in fastest.iter().map(|&i| &runs[i]) {
        let mut fresh = Weighted::default();
        for &(_, since_new, n, _) in &r.steps {
            fresh.push(ms(since_new), n as u64);
        }
        fresh_p50.push(fresh.q(0.5));
        fresh_p99.push(fresh.q(0.99));
    }
    let end_to_end = [
        ("facts_per_s", rates.median(), rates.len()),
        ("setup_s", setup.median() / 1e3, setup.len()),
        ("peak_rss_mb", crate::peak_rss_mb(), 1),
        ("fresh_p50_ms", fresh_p50.median(), fresh_p50.len()),
        ("fresh_p99_ms", fresh_p99.median(), fresh_p99.len()),
    ];

    if traced {
        out.info.insert("traced_end_to_end".into(), crate::pairs_json(&end_to_end));
        set_inc_metrics(&mut out, &mut setup, &runs, exact, pruned);
        let mut trace = Trace::default();
        trace.absorb(spans);
        crate::write_trace(ctx, &trace, &mut out)?;
    } else {
        for (name, value, n) in end_to_end {
            out.set_n(name, value, n);
        }
    }
    Ok(out)
}

/// Exact ΔH scores and pruned candidates (prescreen, walk bound and
/// early abandon) an observer counted.
fn selection_counts(obs: &RecordingObserver) -> (u64, u64) {
    let c = obs.counters();
    let pruned = c.get(Counter::PrescreenKilled)
        + c.get(Counter::WalkBoundKilled)
        + c.get(Counter::EarlyAbandonKilled);
    (c.get(Counter::ExactScored), pruned)
}

/// The `inc.*` layer metrics of traced corroborations.
fn set_inc_metrics(out: &mut Outcome, setup: &mut Samples, runs: &[Run], exact: u64, pruned: u64) {
    let mut step = Samples::default();
    let mut per_live = Samples::default();
    let (mut live_sum, mut evaluated) = (0u64, Samples::default());
    for r in runs {
        for &(d, _, n, live) in &r.steps {
            step.push(us(d));
            evaluated.push(n as f64);
            if live > 0 {
                per_live.push(d.as_nanos() as f64 / live as f64);
                live_sum += live as u64;
            }
        }
    }
    out.set_n("inc.setup_ms", setup.median(), setup.len());
    out.set("inc.rounds", runs.first().map_or(0, |r| r.rounds) as f64);
    out.set_n("inc.step_p50_us", step.median(), step.len());
    out.set_n("inc.step_p99_us", step.q(0.99), step.len());
    out.set_n("inc.step_ns_per_live_group", per_live.median(), per_live.len());
    out.set("inc.exact_per_live_group", exact as f64 / live_sum.max(1) as f64);
    out.set("inc.pruned_frac", pruned as f64 / (pruned + exact).max(1) as f64);
    out.set_n("inc.facts_per_round", evaluated.mean(), evaluated.len());
}

/// The core and inc layers on a world the serve tier built: the
/// standalone grouping and index builds and one traced corroboration.
pub fn layers_of(ds: &Dataset, spans: &mut SpanBuf, out: &mut Outcome) -> Result<(), String> {
    core_layer(ds, 3, spans, out);
    let obs = RecordingObserver::new();
    let run = corroborate(ds, &obs, spans, 0, true)?;
    let (exact, pruned) = selection_counts(&obs);
    let mut setup = Samples::default();
    setup.push(ms(run.new));
    set_inc_metrics(out, &mut setup, &[run], exact, pruned);
    Ok(())
}

/// The grouping and index builds `IncEstimateSession::new` runs, called
/// standalone.
pub fn core_layer(ds: &Dataset, reps: usize, spans: &mut SpanBuf, out: &mut Outcome) {
    let facts: Vec<FactId> = ds.facts().collect();
    let (mut group_ms, mut index_ms) = (Samples::default(), Samples::default());
    let mut n_groups = 0;
    for i in 0..reps {
        let s = Instant::now();
        let groups = group_by_signature(ds.votes(), &facts);
        let m = Instant::now();
        let index = SourceGroupIndex::build(&groups, ds.n_sources());
        let e = Instant::now();
        spans.record("core.group_by_signature", 0, i as u64, s, m);
        spans.record("core.index_build", 0, i as u64, m, e);
        group_ms.push(ms(m - s));
        index_ms.push(ms(e - m));
        n_groups = groups.len();
        drop(std::hint::black_box(index));
    }
    out.set_n("core.group_ms", group_ms.median(), group_ms.len());
    out.set_n("core.index_ms", index_ms.median(), index_ms.len());
    out.set("core.groups", n_groups as f64);
}

fn check_result(out: &mut Outcome, spec: &Spec, recorded: bool, run: &Run, first: u64) {
    out.check(run.digest == first, || {
        format!("digest {:016x} differs from the run's first {first:016x}", run.digest)
    });
    if recorded {
        out.check(run.digest == spec.digest_seed42, || {
            format!(
                "digest {:016x} differs from the recorded {:016x}",
                run.digest, spec.digest_seed42
            )
        });
    }
    out.check(run.accuracy >= spec.accuracy_floor, || {
        format!("accuracy {} below the floor {}", run.accuracy, spec.accuracy_floor)
    });
}
