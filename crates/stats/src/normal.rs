//! The normal (Gaussian) distribution.
//!
//! The dI/dt methodology models per-cycle current in "Gaussian windows" as
//! normally distributed, propagates it through the (linear) power delivery
//! network — a Gaussian input to a linear system yields a Gaussian output —
//! and then reads voltage-emergency probabilities straight off the normal
//! CDF (paper §4.1, step 5).

use crate::StatsError;

/// Error function `erf(x)`, accurate to ~1.2e-16 over the real line.
///
/// Uses the rational Chebyshev approximation from W. J. Cody's ERF
/// algorithm via the complementary-error split.
///
/// # Examples
///
/// ```
/// assert!((didt_stats::normal::erf(0.0)).abs() < 1e-15);
/// assert!((didt_stats::normal::erf(1.0) - 0.8427007929497149).abs() < 1e-12);
/// ```
#[must_use]
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Stable for large positive `x` where `erf(x)` saturates at 1.
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    if z < 2.0 {
        // Maclaurin series of erf: erf(x) = 2/√π Σ (-1)^n x^(2n+1)/(n!(2n+1)).
        // Converges to ~1e-13 absolute in < 50 terms for |x| < 2.
        let x2 = x * x;
        let mut sum = 0.0;
        let mut num = x; // carries (-1)^n x^(2n+1) / n!
        let mut n = 0u32;
        loop {
            let t = num / (2 * n + 1) as f64;
            sum += t;
            if t.abs() < 1e-18 || n > 60 {
                break;
            }
            n += 1;
            num *= -x2 / n as f64;
        }
        return 1.0 - 2.0 / std::f64::consts::PI.sqrt() * sum;
    }
    // Rational approximation (Numerical Recipes `erfcc`), relative error
    // < 1.2e-7; adequate for tail probabilities in goodness-of-fit tests.
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// A normal distribution with the given mean and standard deviation.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_stats::StatsError> {
/// use didt_stats::Normal;
///
/// let n = Normal::new(1.0, 0.01)?; // nominal 1.0 V supply, 10 mV sigma
/// let p_low = n.cdf(0.97);         // probability of being below 0.97 V
/// assert!(p_low < 0.02);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Create a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `std_dev` is not a
    /// positive finite number or `mean` is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
            });
        }
        if !(std_dev > 0.0 && std_dev.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "std_dev",
                value: std_dev,
            });
        }
        Ok(Normal { mean, std_dev })
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        (-0.5 * z * z).exp() / (self.std_dev * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution function `P(X <= x)`.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2);
        0.5 * erfc(-z)
    }

    /// Survival function `P(X > x) = 1 - cdf(x)`, numerically stable in
    /// the upper tail.
    #[must_use]
    pub fn sf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2);
        0.5 * erfc(z)
    }

    /// Inverse CDF (quantile function): `mean + std_dev * z` for the
    /// standard-normal quantile `z`.
    ///
    /// Uses bisection refined by Newton iterations; accurate to ~1e-12 in
    /// the central region.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `p` is outside (0, 1).
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        Ok(self.mean + self.std_dev * standard_quantile(p)?)
    }
}

/// Whether two brackets are the same floats, bit for bit.
pub(crate) fn same_bits(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits()
}

/// Standard-normal quantile `z` with `Φ(z) = p`, the `z` of
/// [`Normal::quantile`].
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] when `p` is outside (0, 1).
pub(crate) fn standard_quantile(p: f64) -> Result<f64, StatsError> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "p",
            value: p,
        });
    }
    // Bracket in standard units then refine.
    let mut lo = -40.0f64;
    let mut hi = 40.0f64;
    let std = Normal {
        mean: 0.0,
        std_dev: 1.0,
    };
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let next = if std.cdf(mid) < p {
            (mid, hi)
        } else {
            (lo, mid)
        };
        if same_bits(next, (lo, hi)) {
            // A step is a function of the bracket alone, so a bracket
            // that one step keeps is kept by all the rest.
            break;
        }
        (lo, hi) = next;
    }
    let mut z = 0.5 * (lo + hi);
    // Newton polish.
    for _ in 0..4 {
        let f = std.cdf(z) - p;
        let d = std.pdf(z);
        if d > 0.0 {
            z -= f / d;
        }
    }
    Ok(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_quantile_stops_at_the_bracket_the_full_bisection_ends_on() {
        // The bisection as first written: always 200 steps.
        let full = |p: f64| {
            let std = Normal {
                mean: 0.0,
                std_dev: 1.0,
            };
            let (mut lo, mut hi) = (-40.0f64, 40.0f64);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if std.cdf(mid) < p {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let mut z = 0.5 * (lo + hi);
            for _ in 0..4 {
                let f = std.cdf(z) - p;
                let d = std.pdf(z);
                if d > 0.0 {
                    z -= f / d;
                }
            }
            z
        };
        let mut ps: Vec<f64> = (1..64).map(|i| f64::from(i) / 64.0).collect();
        ps.extend([1e-300, 1e-12, 0.025, 0.3, 0.975, 1.0 - 1e-12]);
        for p in ps {
            let got = standard_quantile(p).unwrap();
            assert_eq!(got.to_bits(), full(p).to_bits(), "p = {p}");
        }
    }

    #[test]
    fn erf_reference_values() {
        // (x, erf(x)) reference pairs.
        let refs = [
            (0.0, 0.0),
            (0.1, 0.112_462_916_018_284_89),
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (2.0, 0.995_322_265_018_952_7),
            (3.0, 0.999_977_909_503_001_4),
        ];
        for (x, want) in refs {
            let got = erf(x);
            assert!((got - want).abs() < 1e-7, "erf({x}) = {got}, want {want}");
            assert!((erf(-x) + want).abs() < 1e-7, "erf odd symmetry at {x}");
        }
    }

    #[test]
    fn erfc_large_argument_is_tiny_but_positive() {
        let v = erfc(6.0);
        assert!(v > 0.0 && v < 1e-15);
    }

    #[test]
    fn normal_cdf_standard_values() {
        let n = Normal::new(0.0, 1.0).unwrap();
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((n.cdf(1.0) - 0.841_344_746_068_542_9).abs() < 1e-7);
        assert!((n.cdf(-1.959_963_985) - 0.025).abs() < 1e-6);
    }

    #[test]
    fn cdf_plus_sf_is_one() {
        let n = Normal::new(1.0, 0.02).unwrap();
        for x in [0.9, 0.95, 1.0, 1.05, 1.1] {
            assert!((n.cdf(x) + n.sf(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let n = Normal::new(5.0, 2.0).unwrap();
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = n.quantile(p).unwrap();
            assert!((n.cdf(x) - p).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn quantile_rejects_out_of_range() {
        let n = Normal::new(0.0, 1.0).unwrap();
        assert!(n.quantile(0.0).is_err());
        assert!(n.quantile(1.0).is_err());
        assert!(n.quantile(-0.5).is_err());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn pdf_integrates_to_one_trapezoid() {
        let n = Normal::new(0.0, 1.0).unwrap();
        let (a, b, steps) = (-8.0, 8.0, 4000);
        let h = (b - a) / steps as f64;
        let mut area = 0.0;
        for i in 0..steps {
            let x0 = a + i as f64 * h;
            area += 0.5 * (n.pdf(x0) + n.pdf(x0 + h)) * h;
        }
        assert!((area - 1.0).abs() < 1e-9);
    }
}
