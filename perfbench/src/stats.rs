//! Order statistics over raw samples.

/// Nearest-rank quantile of `samples` (`q` in `(0, 1]`); sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p99/p95/p90 that leaves at least ten samples beyond it,
/// or the median when fewer than 40 samples exist (a tail needs both).
pub fn tail_quantile_for(count: usize) -> f64 {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|q| (count as f64 * (1.0 - q) + 1e-9).floor() >= 10.0)
        .unwrap_or(0.5)
}

/// The tail at `q` of samples in arrival order: the run is cut into the
/// most consecutive windows that each still leave ten samples beyond `q`,
/// and the median of the windows' `q`-quantiles is reported. A host stall
/// that delays every request in one window moves that window's tail only.
/// With fewer than three such windows, the `q`-quantile of the whole run;
/// with fewer than ten samples beyond `q` in the whole run, the median.
pub fn tail(samples: &[f64], q: f64) -> f64 {
    let per_window = (10.0 / (1.0 - q)).round() as usize;
    let windows = samples.len() / per_window;
    if windows == 0 {
        return median(&mut samples.to_vec());
    }
    if windows < 3 {
        return quantile(&mut samples.to_vec(), q);
    }
    let size = samples.len() / windows;
    let mut tails: Vec<f64> = samples
        .chunks(size)
        .take(windows)
        .map(|w| quantile(&mut w.to_vec(), q))
        .collect();
    median(&mut tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(tail_quantile_for(1000), 0.99);
        assert_eq!(tail_quantile_for(400), 0.95);
        assert_eq!(tail_quantile_for(100), 0.90);
        assert_eq!(tail_quantile_for(30), 0.5);
        // One stalled window of ten does not move the windowed tail.
        let mut run: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64).collect();
        let calm = tail(&run, 0.99);
        for s in &mut run[..1000] {
            *s += 1000.0;
        }
        assert_eq!(tail(&run, 0.99), calm);
        assert_eq!(tail(&run[..50], 0.99), median(&mut run[..50].to_vec()));
        assert_eq!(
            tail(&run[..2500], 0.99),
            quantile(&mut run[..2500].to_vec(), 0.99)
        );
    }
}
