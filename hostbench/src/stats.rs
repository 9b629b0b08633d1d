//! Order statistics over per-batch samples.

/// Median and interquartile range of one host-clock metric.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples (batches) the summary covers.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// Third quartile minus first quartile, as a share of the median.
    pub iqr_share: f64,
}

/// Quartiles by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let j = ((i + 1) * m / 4).clamp(1, n - 1);
        let delta = ((i + 1) * m) as f64 / 4.0 - j as f64;
        *q = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    out
}

/// Summarises a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "a summary needs at least one sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let [q1, median, q3] = quartiles(&sorted);
    let iqr_share = if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median
    };
    Summary {
        n: values.len(),
        median,
        iqr_share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
        let s = summarize(&[3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.n, 5);
    }
}
