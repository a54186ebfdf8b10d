//! Order statistics for op latencies.

/// The median; `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie beyond the reported tail value, so that it is
/// not decided by one or two outliers.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at `percentile`.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples strictly beyond `value` in sorted order.
    pub beyond: usize,
}

/// The value at the highest percentile with at least [`TAIL_BEYOND`]
/// samples beyond it: the 11th largest sample. `None` when there are too
/// few samples for such a percentile.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let i = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: v[i],
        percentile: 100.0 * (i + 1) as f64 / n as f64,
        beyond: TAIL_BEYOND,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&samples).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        let above = samples.iter().filter(|&&s| s > t.value).count();
        assert_eq!(above, TAIL_BEYOND);
    }

    #[test]
    fn tail_is_the_highest_such_percentile() {
        // With 1000 samples the 99th percentile still has 10 beyond it,
        // so nothing lower may be reported.
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&samples).expect("tail");
        assert_eq!(t.value, 989.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("tail");
        assert_eq!(t.value, 0.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
