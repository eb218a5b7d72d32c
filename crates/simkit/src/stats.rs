//! Online statistics and histograms for measurement aggregation.

/// Single-pass mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long measurement streams; used to aggregate
/// repeated benchmark runs and per-pair network measurements.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction; Chan et
    /// al.'s pairwise update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std dev / mean); 0 for empty or zero-mean.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }

    /// Minimum observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// A fixed-range linear histogram over `f64` observations.
///
/// Used to regenerate the paper's Figure 5 (bandwidth distribution over all
/// node pairs): the colour scale there is exactly an occurrence count per
/// bandwidth bin.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl crate::codec::Encode for Histogram {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lo.encode(out);
        self.hi.encode(out);
        self.bins.encode(out);
        self.underflow.encode(out);
        self.overflow.encode(out);
    }
}

impl crate::codec::Decode for Histogram {
    /// Rejects values that break the invariants `record` and `bin_center`
    /// rely on: non-finite bounds, `lo >= hi` or an empty bin vector.
    fn decode(r: &mut crate::codec::Reader<'_>) -> Result<Self, crate::codec::DecodeError> {
        let start = r.position();
        let lo = f64::decode(r)?;
        let hi = f64::decode(r)?;
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(crate::codec::DecodeError {
                what: "histogram range",
                at: start,
            });
        }
        let bins_at = r.position();
        let bins = Vec::<u64>::decode(r)?;
        if bins.is_empty() {
            return Err(crate::codec::DecodeError {
                what: "histogram bins",
                at: bins_at,
            });
        }
        Ok(Histogram {
            lo,
            hi,
            bins,
            underflow: u64::decode(r)?,
            overflow: u64::decode(r)?,
        })
    }
}

impl Histogram {
    /// A histogram over `[lo, hi)` with `nbins` equal-width bins.
    ///
    /// # Panics
    /// Panics if `hi <= lo` or `nbins == 0`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(nbins > 0, "histogram needs at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Count of observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Centre of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// A copy with bins smoothed by a centred moving average of the given
    /// odd window (edge bins average over the in-range part). Smoothing
    /// before mode detection suppresses single-bin sampling noise.
    pub fn smoothed(&self, window: usize) -> Histogram {
        assert!(window % 2 == 1, "window must be odd");
        let half = window / 2;
        let n = self.bins.len();
        let mut out = self.clone();
        for i in 0..n {
            let lo = i.saturating_sub(half);
            let hi = (i + half).min(n - 1);
            let sum: u64 = self.bins[lo..=hi].iter().sum();
            out.bins[i] = sum / (hi - lo + 1) as u64;
        }
        out
    }

    /// Indices of local maxima ("modes") with counts at least `min_count`,
    /// requiring a strict rise before and fall after (plateau-tolerant).
    /// Used to assert the bimodality the paper observes in Figure 5.
    pub fn modes(&self, min_count: u64) -> Vec<usize> {
        let b = &self.bins;
        let mut modes = Vec::new();
        let mut i = 0;
        while i < b.len() {
            if b[i] < min_count {
                i += 1;
                continue;
            }
            // Extent of the plateau at this height.
            let start = i;
            let mut end = i;
            while end + 1 < b.len() && b[end + 1] == b[start] {
                end += 1;
            }
            let rising = start == 0 || b[start - 1] < b[start];
            let falling = end + 1 == b.len() || b[end + 1] < b[start];
            if rising && falling {
                modes.push((start + end) / 2);
            }
            i = end + 1;
        }
        modes
    }
}

/// Ordinary least-squares fit `y = slope·x + intercept`.
///
/// Returns `(slope, intercept, r²)`. Fitting log(time) against log(nodes)
/// gives the scaling exponent of a strong-scaling curve: −1 is perfect,
/// 0 is flat — the integration tests use it to characterize the paper's
/// scalability figures quantitatively.
///
/// # Panics
/// Panics with fewer than two points or a degenerate (constant-x) input.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64, f64) {
    assert!(points.len() >= 2, "need at least two points");
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let syy: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
    assert!(sxx > 0.0, "x values are constant");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    (slope, intercept, r2)
}

/// Scaling exponent of a `(resources, time)` curve: the slope of the
/// log–log fit. −1 means perfect strong scaling, 0 means no scaling.
///
/// # Panics
/// Panics on non-positive coordinates (log-space is undefined there).
pub fn scaling_exponent(points: &[(f64, f64)]) -> f64 {
    let logged: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "log–log fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    linear_fit(&logged).0
}

/// Compute the `q`-quantile (0 ≤ q ≤ 1) of a slice by sorting a copy.
/// Linear interpolation between closest ranks. Returns NaN for empty input.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = data.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.mean(), before);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.cv(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn histogram_bins_correctly() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-1.0);
        h.record(0.0);
        h.record(0.5);
        h.record(9.99);
        h.record(10.0);
        h.record(15.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_bin_center() {
        let h = Histogram::new(0.0, 10.0, 10);
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
        assert!((h.bin_center(9) - 9.5).abs() < 1e-12);
    }

    #[test]
    fn bimodal_histogram_has_two_modes() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        // Mass at x≈2 and x≈7.
        for _ in 0..50 {
            h.record(2.1);
        }
        for _ in 0..30 {
            h.record(7.3);
        }
        for _ in 0..5 {
            h.record(4.5);
        }
        let modes = h.modes(10);
        assert_eq!(modes.len(), 2);
    }

    #[test]
    fn unimodal_histogram_has_one_mode() {
        // Triangular hump centred at 5: sum of two uniforms.
        let mut rng = crate::rng::Pcg32::seeded(11);
        let mut h = Histogram::new(0.0, 10.0, 20);
        for _ in 0..10_000 {
            let x = rng.uniform(0.0, 5.0) + rng.uniform(0.0, 5.0);
            h.record(x);
        }
        assert_eq!(h.modes(800).len(), 1);
    }

    #[test]
    fn linear_fit_recovers_a_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let (slope, intercept, r2) = linear_fit(&pts);
        assert!((slope - 3.0).abs() < 1e-12);
        assert!((intercept + 2.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_r2_detects_noise() {
        let pts = [(0.0, 0.0), (1.0, 5.0), (2.0, -1.0), (3.0, 4.0), (4.0, 1.0)];
        let (_, _, r2) = linear_fit(&pts);
        assert!(r2 < 0.5, "scatter has low r²: {r2}");
    }

    #[test]
    fn scaling_exponent_of_ideal_curve_is_minus_one() {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0, 16.0]
            .iter()
            .map(|&n| (n, 100.0 / n))
            .collect();
        let e = scaling_exponent(&pts);
        assert!((e + 1.0).abs() < 1e-9, "exponent {e}");
        // A flat (non-scaling) curve has exponent 0.
        let flat: Vec<(f64, f64)> = [1.0, 2.0, 4.0].iter().map(|&n| (n, 7.0)).collect();
        assert!(scaling_exponent(&flat).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn linear_fit_needs_points() {
        linear_fit(&[(1.0, 1.0)]);
    }

    #[test]
    fn quantiles() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 0.5), 3.0);
        assert_eq!(quantile(&data, 1.0), 5.0);
        assert!((quantile(&data, 0.25) - 2.0).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
