//! Sample statistics: percentiles, the pooled minimum the gate reads
//! for `exec_ms`, and the round-to-round spread that decides whether a
//! comparison can resolve its bound.

use crate::json::{obj, Json};

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolating linearly
/// between the two closest ranks. `NaN` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let h = q.clamp(0.0, 1.0) * last as f64;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The statistic the gate reads for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Fastest of all samples pooled across rounds.
    PooledMin,
    /// Median of all samples pooled across rounds.
    Median,
}

impl Gate {
    pub fn name(self) -> &'static str {
        match self {
            Gate::PooledMin => "min",
            Gate::Median => "median",
        }
    }

    fn of(self, samples: &[f64]) -> f64 {
        match self {
            Gate::PooledMin => percentile(samples, 0.0),
            Gate::Median => median(samples),
        }
    }
}

/// Samples of one metric, kept per round so that the same statistic can
/// be taken over the pool (the reported value) and over each round (how
/// far the value moves within one run of the benchmark).
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    rounds: Vec<Vec<f64>>,
}

impl Rounds {
    pub fn push_round(&mut self, samples: Vec<f64>) {
        if !samples.is_empty() {
            self.rounds.push(samples);
        }
    }

    pub fn pooled(&self) -> Vec<f64> {
        self.rounds.iter().flatten().copied().collect()
    }

    pub fn count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    pub fn gated(&self, gate: Gate) -> f64 {
        gate.of(&self.pooled())
    }

    /// The run's own estimate of what it cannot resolve, as a share of
    /// the gated value. Zero with fewer than two rounds.
    ///
    /// For the median: how far it moves between the two interleaved
    /// halves of the run (even rounds against odd rounds). For the
    /// pooled minimum: how far the fifth-fastest sample lies above the
    /// fastest — a minimum that several samples stand next to is one
    /// another run will find again, a lone fast sample is not.
    pub fn spread(&self, gate: Gate) -> f64 {
        if self.rounds.len() < 2 {
            return 0.0;
        }
        match gate {
            Gate::PooledMin => {
                let mut pooled = self.pooled();
                pooled.sort_by(f64::total_cmp);
                (pooled[pooled.len().min(5) - 1] - pooled[0]) / pooled[0]
            }
            Gate::Median => {
                let half = |parity: usize| -> f64 {
                    let samples: Vec<f64> = self
                        .rounds
                        .iter()
                        .skip(parity)
                        .step_by(2)
                        .flatten()
                        .copied()
                        .collect();
                    gate.of(&samples)
                };
                (half(0) - half(1)).abs() / self.gated(gate)
            }
        }
    }

    /// `{value, unit, stat, n, p10, p50, p90, spread, per_round}` — the
    /// gated statistic with the sample count and the percentiles beside it.
    pub fn summary(&self, gate: Gate, unit: &str) -> Json {
        let pooled = self.pooled();
        obj([
            ("value", Json::from(gate.of(&pooled))),
            ("unit", Json::from(unit)),
            ("stat", Json::from(gate.name())),
            ("n", Json::from(pooled.len())),
            ("p10", Json::from(percentile(&pooled, 0.10))),
            ("p50", Json::from(percentile(&pooled, 0.50))),
            ("p90", Json::from(percentile(&pooled, 0.90))),
            ("spread", Json::from(self.spread(gate))),
            (
                "per_round",
                Json::from(self.rounds.iter().map(|r| gate.of(r)).collect::<Vec<_>>()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.10) - 1.4).abs() < 1e-12);
        assert!((percentile(&v, 0.90) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.3), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    /// The reason `exec_ms` is gated on the pooled minimum: on a shared
    /// box identical code runs in a fast and a slow mode that each last
    /// seconds. Whichever rounds were slow, the minimum stays in the
    /// fast mode as long as it was visited at all; the median lands in
    /// either, and the p10 too once fewer than a tenth of the samples
    /// were fast.
    #[test]
    fn pooled_min_ignores_which_rounds_were_slow() {
        let fast: Vec<f64> = (0..20).map(|i| 112.0 + 0.1 * i as f64).collect();
        let slow: Vec<f64> = (0..20).map(|i| 142.0 + 0.1 * i as f64).collect();
        let run = |fast_rounds: usize| {
            let mut r = Rounds::default();
            for n in 0..6 {
                let mut round = if n < fast_rounds {
                    fast.clone()
                } else {
                    slow.clone()
                };
                if n == 0 && fast_rounds == 0 {
                    round[7] = 112.3; // one fast execute in an otherwise slow run
                }
                r.push_round(round);
            }
            r
        };
        let (mostly_fast, mostly_slow, barely) = (run(4), run(2), run(0));
        for r in [&mostly_slow, &barely] {
            let (a, b) = (mostly_fast.gated(Gate::PooledMin), r.gated(Gate::PooledMin));
            assert!((a - b).abs() / a < 0.01, "min {a} vs {b}");
        }
        let median = |r: &Rounds| r.gated(Gate::Median);
        assert!((median(&mostly_slow) - median(&mostly_fast)) / median(&mostly_fast) > 0.2);
        let p10 = |r: &Rounds| percentile(&r.pooled(), 0.10);
        assert!((p10(&barely) - p10(&mostly_fast)) / p10(&mostly_fast) > 0.2);
        assert_eq!(mostly_fast.count(), 120);
    }

    #[test]
    fn spread_of_a_median_is_the_disagreement_of_the_interleaved_halves() {
        let mut r = Rounds::default();
        for base in [10.0, 11.0, 12.0, 13.0] {
            r.push_round(vec![base, base + 0.5]);
        }
        r.push_round(Vec::new()); // an empty round is not a round
                                  // even rounds {10, 10.5, 12, 12.5}, odd rounds {11, 11.5, 13, 13.5}
        assert!((r.spread(Gate::Median) - 1.0 / 11.75).abs() < 1e-12);
        let mut one = Rounds::default();
        one.push_round(vec![1.0, 2.0]);
        assert_eq!(one.spread(Gate::Median), 0.0);
        assert_eq!(one.spread(Gate::PooledMin), 0.0);
    }

    #[test]
    fn spread_of_a_minimum_is_how_alone_it_stands() {
        let mut backed = Rounds::default();
        backed.push_round(vec![142.0, 110.0, 110.5, 141.0]);
        backed.push_round(vec![110.2, 143.0, 111.0, 110.8]);
        // fastest 110.0, fifth-fastest 111.0
        assert!((backed.spread(Gate::PooledMin) - 1.0 / 110.0).abs() < 1e-12);
        let mut lone = Rounds::default();
        lone.push_round(vec![142.0, 110.0, 141.0]);
        lone.push_round(vec![143.0, 141.5, 142.5]);
        assert!(lone.spread(Gate::PooledMin) > 0.25);
        let mut few = Rounds::default();
        few.push_round(vec![10.0]);
        few.push_round(vec![11.0]);
        assert!((few.spread(Gate::PooledMin) - 0.1).abs() < 1e-12);
    }
}
