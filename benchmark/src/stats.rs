//! Exact order statistics over raw samples. The repo's `trace::Histogram`
//! buckets by powers of two, which makes a median flip between 127 and 255
//! on identical runs; every quantile the benchmark reports comes from here.

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it. `None` when empty.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples —
/// the guide asks for at least ten before a tail percentile is trusted.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Median of unordered values (mean of the two middle ones when even).
///
/// # Panics
///
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method),
/// because that is what the driver computes its spreads with. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook definition, written the slow way, as the reference.
    fn reference_quantile(data: &[u32], q: f64) -> u32 {
        let mut sorted = data.to_vec();
        sorted.sort_unstable();
        for &x in &sorted {
            let at_or_below = sorted.iter().filter(|&&y| y <= x).count();
            if at_or_below as f64 >= q * sorted.len() as f64 {
                return x;
            }
        }
        *sorted.last().unwrap()
    }

    #[test]
    fn quantile_matches_sorted_reference() {
        let mut rng = simcore::Rng::new(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let data: Vec<u32> = (0..n).map(|_| rng.next_below(50) as u32).collect();
            let mut sorted = data.clone();
            sorted.sort_unstable();
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    quantile_sorted(&sorted, q),
                    Some(reference_quantile(&data, q)),
                    "n={n} q={q}"
                );
            }
        }
        assert_eq!(quantile_sorted::<u32>(&[], 0.5), None);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
