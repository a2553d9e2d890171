//! Order statistics over measured samples, always carried with the
//! sample count they rest on.

use std::fmt;

/// Median, quartiles and (when the sample is large enough) a tail
/// percentile of one measured quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Median (linear interpolation between closest ranks).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest of p99 / p90 that has at least ten samples beyond it,
    /// as `(percentile, value)`; `None` when fewer than 100 samples.
    pub tail: Option<(u32, f64)>,
}

/// The `q`-quantile (0..=1) of an ascending slice, interpolating
/// linearly between the two closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

impl Stats {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(values: &[f64]) -> Stats {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let n = sorted.len();
        let tail = [99u32, 90]
            .into_iter()
            .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
            .map(|p| (p, quantile(&sorted, p as f64 / 100.0)));
        Stats {
            n,
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail,
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "median {:.4} (n={}, q1 {:.4}, q3 {:.4}",
            self.median, self.n, self.q1, self.q3
        )?;
        match self.tail {
            Some((p, v)) => write!(f, ", p{p} {v:.4})"),
            None => write!(f, ", no tail percentile below 100 samples)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Stats::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(s.tail, None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(Stats::of(&values).tail.map(|t| t.0), Some(90));
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Stats::of(&values).tail.map(|t| t.0), Some(99));
        assert_eq!(Stats::of(&values[..99]).tail, None);
    }

    #[test]
    fn display_states_the_sample_count() {
        let shown = Stats::of(&[1.0, 2.0, 3.0]).to_string();
        assert!(shown.contains("n=3"), "{shown}");
        assert!(shown.contains("no tail percentile"), "{shown}");
    }
}
