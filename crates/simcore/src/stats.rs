//! Statistics used to summarize simulator output.
//!
//! Everything here is deliberately dependency-free and numerically boring:
//! Welford's running moments and ordinary least squares for the
//! scaling-figure slopes.

/// Running mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for the long cycle counts the simulator produces.
///
/// # Examples
///
/// ```
/// use simcore::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (divides by n − 1); zero with fewer than two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Coefficient of variation (stddev / mean); zero when the mean is zero.
    ///
    /// Table 2 (fairness) reports this over per-processor acquisition counts:
    /// a perfectly fair lock gives 0.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.stddev() / m
        }
    }
}

/// Result of an ordinary-least-squares fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub(crate) intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r2: f64,
}

/// Least-squares line through `(x, y)` points.
///
/// Used by the scaling figures to report, e.g., "test-and-set grows linearly
/// in P (slope s, R² r)". Returns `None` with fewer than two points or when
/// all x are identical.
pub(crate) fn linear_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let mx = sx / n;
    let my = sy / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| {
            let e = p.1 - (slope * p.0 + intercept);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(LinearFit {
        slope,
        intercept,
        r2,
    })
}

/// Log–log power-law fit `y ≈ c·x^e`, returned as `(exponent, r2)`.
///
/// The ICPP-era scaling claims ("O(1) vs O(P)") are exactly statements about
/// this exponent. Points with nonpositive coordinates are skipped.
pub(crate) fn power_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    let logged: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.0 > 0.0 && p.1 > 0.0)
        .map(|p| (p.0.ln(), p.1.ln()))
        .collect();
    linear_fit(&logged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_sane() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = RunningStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.5, -3.0, 7.25, 0.0, 100.0, -50.5];
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        let mut s = RunningStats::new();
        for _ in 0..10 {
            s.push(5.0);
        }
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn linear_fit_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert!(linear_fit(&[(1.0, 2.0)]).is_none());
        assert!(linear_fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn linear_fit_constant_y() {
        let pts = [(0.0, 4.0), (1.0, 4.0), (2.0, 4.0)];
        let fit = linear_fit(&pts).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    fn power_fit_recovers_exponent() {
        // y = 2 * x^1.5
        let pts: Vec<(f64, f64)> = (1..20)
            .map(|i| (i as f64, 2.0 * (i as f64).powf(1.5)))
            .collect();
        let fit = power_fit(&pts).unwrap();
        assert!((fit.slope - 1.5).abs() < 1e-9, "exponent {}", fit.slope);
    }

    #[test]
    fn power_fit_skips_nonpositive() {
        let pts = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 8.0)];
        // The (0, 1) point must be ignored, not poison the fit with -inf.
        let fit = power_fit(&pts).unwrap();
        assert!(fit.slope.is_finite());
    }
}
