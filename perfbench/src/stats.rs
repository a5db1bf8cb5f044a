//! Order statistics over recorded samples.

use std::time::Duration;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 for
/// an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A growing set of samples, summarised by nearest-rank quantiles.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    pub fn q(&mut self, q: f64) -> f64 {
        self.sort();
        quantile(&self.values, q)
    }

    pub fn median(&mut self) -> f64 {
        self.q(0.5)
    }

    pub fn max(&mut self) -> f64 {
        self.q(1.0)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// Samples carrying a weight each (e.g. one round time standing for every
/// fact the round evaluated); quantiles are taken over total weight.
#[derive(Debug, Default)]
pub struct Weighted {
    values: Vec<(f64, u64)>,
    total: u64,
}

impl Weighted {
    pub fn push(&mut self, v: f64, weight: u64) {
        if weight > 0 {
            self.values.push((v, weight));
            self.total += weight;
        }
    }

    pub fn q(&mut self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.values.sort_by(|a, b| a.0.total_cmp(&b.0));
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for &(v, w) in &self.values {
            seen += w;
            if seen >= rank {
                return v;
            }
        }
        self.values.last().map_or(0.0, |&(v, _)| v)
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
