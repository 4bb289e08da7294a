//! Small numeric helpers: a seeded PRNG, quantiles and medians, and the
//! `/metrics` exposition parser the run guards and per-layer deltas use.

use std::collections::HashMap;

/// SplitMix64: a tiny, well-mixed seeded generator. Every input the
/// benchmark sends is drawn from one of these, so a seed fixes the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random subset of `items` with exactly `k` members,
    /// kept in the input order.
    pub fn subset<T: Copy>(&mut self, items: &[T], k: usize) -> Vec<T> {
        let mut picked = vec![false; items.len()];
        let mut left = k.min(items.len());
        while left > 0 {
            let i = self.below(items.len());
            if !picked[i] {
                picked[i] = true;
                left -= 1;
            }
        }
        items
            .iter()
            .zip(picked)
            .filter_map(|(item, keep)| keep.then_some(*item))
            .collect()
    }
}

/// The `q`-quantile (0..=1) of `sorted` by the nearest-rank rule.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The best-quartile value of per-slice figures: the 75th percentile when
/// higher is better, the 25th when lower is. The host this benchmark was
/// tuned on slows whole seconds at a time by up to a half and never speeds
/// one up, so the faster slices estimate the code's own speed more
/// steadily than their median does.
pub fn best_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    quantile(values, if higher_is_better { 0.75 } else { 0.25 })
}

/// The best-decile value of per-slice figures: the 90th percentile when
/// higher is better, the 10th when lower is. For many short slices, where
/// the host's slowdowns (half-second stretches at up to half speed) touch
/// most slices of a run but leave a few whole.
pub fn best_decile(values: &[f64], higher_is_better: bool) -> f64 {
    quantile(values, if higher_is_better { 0.90 } else { 0.10 })
}

/// The arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One `/metrics` scrape: every sample line keyed by its full series name
/// (`name{labels}`), so label sets stay distinct.
#[derive(Debug, Clone, Default)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn parse(body: &str) -> Scrape {
        let mut series = HashMap::new();
        for line in body.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(value) = value.trim().parse::<f64>() {
                    series.insert(name.trim().to_string(), value);
                }
            }
        }
        Scrape(series)
    }

    /// A series' value (0 when absent: histograms and persistence
    /// families only appear once they have something to report).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `after - before` for one series.
    pub fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
        after.get(series) - before.get(series)
    }

    /// Mean microseconds per observation of one stage histogram between
    /// two scrapes (0 when the stage saw none).
    pub fn stage_mean_us(before: &Scrape, after: &Scrape, stage: &str) -> f64 {
        let sum = Scrape::delta(
            before,
            after,
            &format!("osdiv_stage_duration_seconds_sum{{stage=\"{stage}\"}}"),
        );
        let count = Scrape::delta(
            before,
            after,
            &format!("osdiv_stage_duration_seconds_count{{stage=\"{stage}\"}}"),
        );
        if count > 0.0 {
            sum * 1e6 / count
        } else {
            0.0
        }
    }
}
