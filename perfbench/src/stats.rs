//! Order statistics over timing samples.

/// Samples that must lie beyond a reported percentile for it to count
/// as measured rather than read off the slowest few samples.
pub const TAIL_SUPPORT: usize = 10;

/// The median of `xs` (mean of the two middle values for even counts);
/// `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile of `xs` (`0 < p <= 100`); `0.0`
/// for no samples.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p) - 1]
}

/// The highest whole percentile of `n` samples that has at least
/// [`TAIL_SUPPORT`] samples beyond its nearest rank, if any.
pub fn supported_percentile(n: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    (1..=99).rev().find(|&p| n - rank(n, p) >= TAIL_SUPPORT)
}

/// A one-line description of a percentile's support, e.g.
/// `p90 of n=120 (highest supported p91)`.
pub fn describe(p: u32, n: usize) -> String {
    match supported_percentile(n) {
        Some(s) if s >= p => format!("p{p} of n={n} (highest supported p{s})"),
        Some(s) => format!("p{p} of n={n}, UNSUPPORTED (highest supported p{s})"),
        None => {
            format!("p{p} of n={n}, UNSUPPORTED (fewer than {TAIL_SUPPORT} samples beyond any)")
        }
    }
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples.
fn rank(n: usize, p: u32) -> usize {
    ((n * p as usize).div_ceil(100)).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(10), None);
        assert_eq!(supported_percentile(11), Some(9));
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(supported_percentile(99), Some(89));
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(1000), Some(99));
        for n in 11..400 {
            let p = supported_percentile(n).unwrap();
            assert!(n - rank(n, p) >= TAIL_SUPPORT, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, p + 1) < TAIL_SUPPORT, "n={n} p={p} not highest");
            }
        }
    }

    #[test]
    fn nearest_rank_and_median() {
        let xs: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&[3.0], 90), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn describe_flags_unsupported_tails() {
        assert_eq!(describe(90, 100), "p90 of n=100 (highest supported p90)");
        assert!(describe(90, 50).contains("UNSUPPORTED"));
        assert!(describe(90, 3).contains("UNSUPPORTED"));
    }
}
