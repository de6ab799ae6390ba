//! Order statistics over timed repetitions.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of `xs`, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so spreads reported here match an external check of the same
/// numbers. With a single value all three are that value.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    // Integer arithmetic as in CPython: m = len + 1, j = i*m // n clamped
    // to 1..=len-1, and interpolation weight delta/n.
    // delta goes negative (extrapolation) when j is clamped up to 1.
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range of `xs` as a share of its median.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timed sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Expected values from CPython 3 `statistics.quantiles(xs, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(
            quartiles(&[2.6, 2.9, 2.7, 3.1, 2.8]),
            [2.6500000000000004, 2.8, 3.0]
        );
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn iqr_frac_is_relative_to_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_frac(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        median(&[]);
    }
}
