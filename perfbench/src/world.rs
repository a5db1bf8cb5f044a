//! Benchmark inputs: synthetic worlds of the paper's §6.3.1 model with a
//! fixed source population.
//!
//! `corroborate_datagen::synthetic::generate` draws the sources' trust,
//! coverage and F-vote rate from its seed, so two seeds differ in the
//! population itself and the work of a corroboration swings by tens of
//! percent between seeds. Here the population is always the one seed
//! [`POPULATION_SEED`] draws; the run's seed draws only the facts and
//! votes. The random stream is consumed exactly as `generate` consumes
//! it, so at seed [`POPULATION_SEED`] the world equals `generate`'s.

use corroborate_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed whose source population every world uses.
pub const POPULATION_SEED: u64 = 42;

/// Per-source parameters: trust σ, coverage c and F-vote rate m.
#[derive(Debug, Clone, Copy)]
struct Source {
    accurate: bool,
    trust: f64,
    coverage: f64,
    f_rate: f64,
}

fn draw_sources(rng: &mut StdRng, n_accurate: usize, n_sources: usize) -> Vec<Source> {
    (0..n_sources)
        .map(|i| {
            let accurate = i < n_accurate;
            let trust: f64 =
                if accurate { rng.gen_range(0.7..1.0) } else { rng.gen_range(0.5..0.7) };
            let coverage = (1.0 - trust + rng.gen_range(0.0..1.0_f64) * 0.2).clamp(0.01, 1.0);
            let f_rate = if accurate { rng.gen_range(0.0..0.5) } else { 0.0 };
            Source { accurate, trust, coverage, f_rate }
        })
        .collect()
}

/// A world of `n_accurate + n_inaccurate` sources over `n_facts`
/// candidate facts (voteless candidates are dropped), `eta · n_facts` of
/// the false ones F-eligible. Names are `accurate{i}`, `inaccurate{i}`
/// and `f{i}`; the planted truth is attached.
pub fn generate(
    n_accurate: usize,
    n_inaccurate: usize,
    n_facts: usize,
    eta: f64,
    seed: u64,
) -> Result<Dataset, String> {
    let n_sources = n_accurate + n_inaccurate;
    let sources = draw_sources(&mut StdRng::seed_from_u64(POPULATION_SEED), n_accurate, n_sources);
    let mut rng = StdRng::seed_from_u64(seed);
    // Consume the population draws so the fact stream lines up with
    // `generate`'s at the population seed.
    draw_sources(&mut rng, n_accurate, n_sources);

    let truths: Vec<bool> = (0..n_facts).map(|_| rng.gen_bool(0.5)).collect();
    let mut pool: Vec<usize> = (0..n_facts).filter(|&i| !truths[i]).collect();
    let n_eligible = ((eta * n_facts as f64) as usize).min(pool.len());
    for i in 0..n_eligible {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    let mut eligible = vec![false; n_facts];
    for &i in &pool[..n_eligible] {
        eligible[i] = true;
    }

    let mut votes: Vec<Vec<(usize, Vote)>> = vec![Vec::new(); n_facts];
    for (s, src) in sources.iter().enumerate() {
        let wrong_rate = if src.accurate {
            0.0
        } else {
            (src.coverage * (1.0 - src.trust) / src.trust).clamp(0.0, 1.0)
        };
        for (i, &truth) in truths.iter().enumerate() {
            if truth {
                if rng.gen_bool(src.coverage) {
                    votes[i].push((s, Vote::True));
                }
            } else if eligible[i] {
                if src.accurate && rng.gen_bool(src.f_rate) {
                    votes[i].push((s, Vote::False));
                } else if !src.accurate && rng.gen_bool(wrong_rate) {
                    votes[i].push((s, Vote::True));
                }
            } else if !src.accurate && rng.gen_bool(wrong_rate) {
                votes[i].push((s, Vote::True));
            }
        }
    }
    if n_accurate > 0 {
        for (v, &e) in votes.iter_mut().zip(&eligible) {
            if e && !v.iter().any(|&(_, vote)| vote == Vote::False) {
                v.push((rng.gen_range(0..n_accurate), Vote::False));
            }
        }
    }

    let mut b = DatasetBuilder::new();
    let ids: Vec<SourceId> = (0..n_sources)
        .map(|i| {
            b.add_source(if i < n_accurate {
                format!("accurate{i}")
            } else {
                format!("inaccurate{}", i - n_accurate)
            })
        })
        .collect();
    for (i, v) in votes.iter().enumerate() {
        if v.is_empty() {
            continue;
        }
        let f = b.add_fact_with_truth(format!("f{i}"), Label::from_bool(truths[i]));
        for &(s, vote) in v {
            b.cast(ids[s], f, vote).map_err(|e| format!("cast: {e}"))?;
        }
    }
    b.build().map_err(|e| format!("build: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use corroborate_datagen::synthetic::{self, SyntheticConfig};

    /// A fact's name, planted truth and votes (by source name).
    type Fact = (String, Label, Vec<(String, Vote)>);

    fn contents(ds: &Dataset) -> Vec<Fact> {
        ds.facts()
            .map(|f| {
                let votes = ds
                    .votes()
                    .votes_on(f)
                    .iter()
                    .map(|sv| (ds.source_name(sv.source).to_string(), sv.vote))
                    .collect();
                let label = ds.ground_truth().expect("planted truth").label(f);
                (ds.fact_name(f).to_string(), label, votes)
            })
            .collect()
    }

    #[test]
    fn equals_datagen_at_the_population_seed() {
        for (n_accurate, n_inaccurate, n_facts) in [(8, 2, 3_000), (24, 6, 2_000)] {
            let ours = generate(n_accurate, n_inaccurate, n_facts, 0.02, POPULATION_SEED).unwrap();
            let theirs = synthetic::generate(&SyntheticConfig {
                n_accurate,
                n_inaccurate,
                n_facts,
                eta: 0.02,
                seed: POPULATION_SEED,
            })
            .unwrap()
            .dataset;
            let names = |ds: &Dataset| {
                ds.sources().map(|s| ds.source_name(s).to_string()).collect::<Vec<_>>()
            };
            assert_eq!(names(&ours), names(&theirs));
            assert_eq!(contents(&ours), contents(&theirs));
        }
    }

    #[test]
    fn other_seeds_keep_the_population_and_redraw_the_facts() {
        let a = generate(8, 2, 3_000, 0.02, 7).unwrap();
        let b = generate(8, 2, 3_000, 0.02, 7).unwrap();
        let c = generate(8, 2, 3_000, 0.02, 8).unwrap();
        assert_eq!(contents(&a), contents(&b));
        assert_ne!(contents(&a), contents(&c));
    }
}
