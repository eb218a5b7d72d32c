//! Reproducible pseudo-random number generation.
//!
//! All stochastic behaviour in the simulator (workload generation, noise
//! injection, node-failure placement) flows through [`Pcg32`], a
//! self-contained implementation of the PCG-XSH-RR 64/32 generator. The
//! integer stream is identical on every platform and every run with the
//! same seed, which the integration tests rely on.
//!
//! Normal deviates come from the 256-layer ziggurat (Marsaglia & Tsang
//! 2000, in Doornik's 2005 form). 98.5 % of draws cost one `next_u64`, one
//! multiply and one compare; the rest land in a wedge and pay one `exp`,
//! or (0.03 %) in the tail beyond `R`, sampled by Marsaglia's exponential
//! rejection (two `ln`s per try). The layer tables are built once, on
//! first use, from their defining recurrence. Floating-point draws
//! therefore depend on the platform libm's `exp` and `ln` (through the
//! tables, the wedge and the tail), as they did under Box–Muller:
//! bit-identical across runs, thread counts and hosts sharing a libm, not
//! guaranteed across libms.

use std::sync::LazyLock;

/// Number of ziggurat layers; a draw's low 8 bits pick one.
const ZIG_LAYERS: usize = 256;
/// Where the base layer's rectangle ends and the normal tail begins.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of every layer under `f(x) = exp(-x²/2)`: `R·f(R)` plus the tail
/// beyond `R`. The literature quotes 0.00492867323399; that 12-digit value
/// leaves the top layer 1e-9 short of `V`, this one closes it to 1e-13.
const ZIG_V: f64 = 0.004_928_673_233_974_658;

/// Layer edges and the density at each edge. Layer `i` is the rectangle
/// `[0, x[i]) × [f[i], f[i+1])`; the base layer `i = 0` is
/// `[0, x[0]) × [0, f[1])`, whose part beyond `ZIG_R` stands for the tail.
/// Built from the recurrence `x[0] = V/f(R)`, `x[1] = R`,
/// `x[i] = √(−2 ln(V/x[i−1] + f(x[i−1])))`, `x[256] = 0`.
struct Ziggurat {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(|| {
    let pdf = |x: f64| (-0.5 * x * x).exp();
    let mut x = [0.0; ZIG_LAYERS + 1];
    x[0] = ZIG_V / pdf(ZIG_R);
    x[1] = ZIG_R;
    for i in 2..ZIG_LAYERS {
        x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
    }
    Ziggurat { x, f: x.map(pdf) }
});

/// PCG-XSH-RR 64/32: 64-bit state, 32-bit output, period 2^64 per stream.
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    /// Create a generator from a seed and a stream selector. Different
    /// streams with the same seed are statistically independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Create a generator from a seed on the default stream.
    pub fn seeded(seed: u64) -> Self {
        Self::new(seed, 0xda3e39cb94b95bdb)
    }

    /// Next 32 uniformly distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly distributed bits (two draws).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` without modulo bias (Lemire's method
    /// via rejection on the widening multiply).
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            let m = u64::from(r) * u64::from(bound);
            if (m as u32) >= threshold {
                return (m >> 32) as u32;
            }
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard normal deviate from the 256-layer ziggurat.
    ///
    /// One `next_u64` supplies both the layer (low 8 bits) and a uniform
    /// on `[-1, 1)` (top 53 bits, exact on a 2^-52 grid); a point inside
    /// the layer's rectangle is returned at once.
    pub fn normal(&mut self) -> f64 {
        let z = &*ZIGGURAT;
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
            let x = u * z.x[i];
            if x.abs() < z.x[i + 1] {
                return x;
            }
            if i == 0 {
                return self.normal_tail(u < 0.0);
            }
            // Wedge: accept when a uniform height within the layer falls
            // below the density.
            if z.f[i] + (z.f[i + 1] - z.f[i]) * self.next_f64() < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// A deviate from the normal tail beyond `ZIG_R` (Marsaglia's
    /// exponential rejection), negated when `negative`.
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            // 1 - [0, 1) is (0, 1], so both logarithms are finite.
            let x = (1.0 - self.next_f64()).ln() / ZIG_R;
            let y = (1.0 - self.next_f64()).ln();
            if -2.0 * y >= x * x {
                return if negative { x - ZIG_R } else { ZIG_R - x };
            }
        }
    }

    /// Lognormal multiplicative noise factor with median 1 and the given
    /// sigma of the underlying normal. Used to model run-to-run variability
    /// of benchmark measurements.
    #[inline]
    pub fn lognormal_noise(&mut self, sigma: f64) -> f64 {
        (sigma * self.normal()).exp()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u32 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "cannot choose from an empty slice");
        &slice[self.next_below(slice.len() as u32) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Pcg32::seeded(42);
        let mut b = Pcg32::seeded(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::seeded(1);
        let mut b = Pcg32::seeded(2);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 5);
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = Pcg32::new(7, 1);
        let mut b = Pcg32::new(7, 2);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg32::seeded(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Pcg32::seeded(4);
        for bound in [1u32, 2, 3, 7, 48, 192] {
            for _ in 0..1000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_range() {
        let mut rng = Pcg32::seeded(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.next_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Pcg32::seeded(6);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// `∫ₐᵇ g` by composite Simpson's rule on `n` (even) panels.
    fn simpson(g: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
        let h = (b - a) / n as f64;
        let inner: f64 = (1..n)
            .map(|k| g(a + k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        (g(a) + inner + g(b)) * h / 3.0
    }

    /// `P(a ≤ X < b)` for a standard normal `X`.
    fn phi_mass(a: f64, b: f64) -> f64 {
        let pdf = |x: f64| (-0.5 * x * x).exp() / std::f64::consts::TAU.sqrt();
        simpson(pdf, a, b, 2_000)
    }

    #[test]
    fn normal_matches_phi_by_chi_squared() {
        // 82 bins: (-inf, -4), eighty of width 0.1 over [-4, 4), [4, inf).
        // 4 M draws is enough to see a wedge test that accepts too much or
        // too little (χ² above 300 at this seed).
        let n = 4_000_000;
        let mut counts = [0u64; 82];
        let mut rng = Pcg32::seeded(11);
        for _ in 0..n {
            let x = rng.normal();
            let bin = if x < -4.0 {
                0
            } else if x >= 4.0 {
                81
            } else {
                (1 + ((x + 4.0) * 10.0) as usize).min(80)
            };
            counts[bin] += 1;
        }
        let outer = 0.5 - phi_mass(0.0, 4.0);
        let chi2: f64 = counts
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let p = match k {
                    0 | 81 => outer,
                    _ => phi_mass(-4.0 + (k - 1) as f64 * 0.1, -4.0 + k as f64 * 0.1),
                };
                let e = p * n as f64;
                (c as f64 - e).powi(2) / e
            })
            .sum();
        // 81 degrees of freedom: mean 81, sd 12.7.
        assert!(chi2 < 140.0, "chi2 {chi2} over 82 bins");
    }

    #[test]
    fn tail_beyond_r_is_two_sided_at_the_normal_rate() {
        let n = 2_000_000;
        let mut rng = Pcg32::seeded(12);
        let (mut below, mut above) = (0u64, 0u64);
        for _ in 0..n {
            let x = rng.normal();
            if x > ZIG_R {
                above += 1;
            } else if x < -ZIG_R {
                below += 1;
            }
        }
        let p = 0.5 - phi_mass(0.0, ZIG_R);
        let (mean, sd) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
        for (side, count) in [("below -R", below), ("above R", above)] {
            let z = (count as f64 - mean) / sd;
            assert!(
                z.abs() < 4.0,
                "{side}: {count} draws, expected {mean:.1} (z = {z:.2})"
            );
        }
    }

    #[test]
    fn ziggurat_layers_decrease_and_have_equal_area() {
        let z = &*ZIGGURAT;
        assert_eq!(z.x[1], ZIG_R);
        assert_eq!(z.x[ZIG_LAYERS], 0.0);
        assert_eq!(z.f[ZIG_LAYERS], 1.0);
        assert!(
            z.x.windows(2).all(|w| w[0] > w[1]),
            "x not strictly decreasing"
        );
        // The base layer is the rectangle up to R plus the tail beyond it.
        let tail = simpson(|x| (-0.5 * x * x).exp(), ZIG_R, ZIG_R + 10.0, 20_000);
        let base = ZIG_R * z.f[1] + tail;
        let layers = (1..ZIG_LAYERS).map(|i| z.x[i] * (z.f[i + 1] - z.f[i]));
        for (i, area) in std::iter::once(base).chain(layers).enumerate() {
            let rel = (area - ZIG_V).abs() / ZIG_V;
            assert!(
                rel < 1e-12,
                "layer {i}: area {area:e}, relative error {rel:e}"
            );
        }
    }

    #[test]
    fn normal_stream_is_pinned() {
        let want: [u64; 8] = [
            0xbfd15f30fd70b904, // -0.2714350199702411
            0xbffe1dbd9c3c8d09, // -1.8822609045972192
            0x3fd3f9abbfd5b1be, //  0.3121137021433035
            0xbff38bdb1c22aa79, // -1.2216445063628767
            0x3fdea5cfeb42d234, //  0.4788703725310228
            0x3feb5cb68c0962a8, //  0.8550675139514015
            0xbfe1584b18e69e86, // -0.5420279966683246
            0xbff4342ec6437bd4, // -1.262739920108051
        ];
        let mut rng = Pcg32::seeded(2026);
        let got: Vec<u64> = (0..8).map(|_| rng.normal().to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn lognormal_noise_has_median_one() {
        let mut rng = Pcg32::seeded(7);
        let mut samples: Vec<f64> = (0..10_001).map(|_| rng.lognormal_noise(0.3)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[5000];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::seeded(8);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Pcg32::seeded(9);
        for _ in 0..1000 {
            let x = rng.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }
}
