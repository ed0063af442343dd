//! Order statistics over per-pass samples.

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

/// Smallest sample; 0 for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The highest percentile that still has at least ten samples above it, as
/// `(percentile, value)`; `None` with fewer than eleven samples.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let s = sorted(xs);
    let k = n - 11; // s[k] has exactly ten samples beyond it
    let pct = ((k + 1) * 100 / n) as u32;
    Some((pct, s[k]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_min() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_beyond() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // s[9] = 10.0 has 10 samples above it: the 50th percentile.
        assert_eq!(tail_percentile(&xs), Some((50, 10.0)));
        assert_eq!(tail_percentile(&xs[..10]), None);
    }
}
