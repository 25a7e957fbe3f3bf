//! Sample summaries and the metric-name rule.

/// Median and quartiles of a sample, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the benchmark's own summaries agree with an external check of its
/// output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarizes `values`; `None` for an empty sample. A single value is
/// its own median and quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => None,
        1 => Some(Summary {
            q1: data[0],
            median: data[0],
            q3: data[0],
            n,
        }),
        _ => {
            let q = |i: usize| {
                // statistics.quantiles, method="exclusive", n=4.
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some(Summary {
                q1: q(1),
                median: q(2),
                q3: q(3),
                n,
            })
        }
    }
}

/// Median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 3.0, 1.0, 4.0, 2.0]).unwrap();
        assert!(close(s.q1, 1.5) && close(s.median, 3.0) && close(s.q3, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).unwrap();
        assert!(close(s.q1, 0.75) && close(s.median, 1.5) && close(s.q3, 2.25));
        assert_eq!(s.n, 2);
    }

    #[test]
    fn median_handles_odd_even_single_and_empty() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[7.5]), 7.5));
        assert_eq!(median(&[]), 0.0);
        let one = summarize(&[7.5]).unwrap();
        assert_eq!((one.q1, one.q3, one.n), (7.5, 7.5, 1));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "wall_s",
            "core.evals.cycle-fast",
            "bench.fig10.cold_s",
            "1x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "-x", "a b", "x/y", "é", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
