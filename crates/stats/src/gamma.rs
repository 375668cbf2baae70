//! Log-gamma and regularized incomplete gamma functions.
//!
//! These power the chi-squared distribution CDF: for `k` degrees of
//! freedom, `P(X <= x) = P(k/2, x/2)` where `P` is the regularized lower
//! incomplete gamma function. Implementations follow the classic
//! series/continued-fraction split (Numerical Recipes style) with a
//! Lanczos approximation for `ln Γ`.

use crate::StatsError;

/// Lanczos coefficients (g = 7, n = 9), good to ~15 significant digits.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// # Panics
///
/// Panics in debug builds when `x <= 0`; release builds return NaN.
fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = LANCZOS[0];
    let t = x + LANCZOS_G + 0.5;
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// `P(a, x) = γ(a, x) / Γ(a)` with `P(a, 0) = 0` and `P(a, ∞) = 1`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] when `a <= 0` or `x < 0`, and
/// [`StatsError::NoConvergence`] if the internal iteration fails (which
/// does not occur for reasonable inputs).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_stats::StatsError> {
/// // For a = 1, P(1, x) = 1 - exp(-x).
/// let p = didt_stats::gamma::gamma_p(1.0, 2.0)?;
/// assert!((p - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn gamma_p(a: f64, x: f64) -> Result<f64, StatsError> {
    if a <= 0.0 || !a.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "a",
            value: a,
        });
    }
    if x < 0.0 || !x.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: x,
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        Ok(1.0 - gamma_q_cf(a, x)?)
    }
}

/// Series expansion of P(a, x), converges fast for x < a + 1.
fn gamma_p_series(a: f64, x: f64) -> Result<f64, StatsError> {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            let ln_pre = -x + a * x.ln() - ln_gamma(a);
            return Ok(sum * ln_pre.exp());
        }
    }
    Err(StatsError::NoConvergence {
        routine: "gamma_p_series",
    })
}

/// Continued fraction for Q(a, x), converges fast for x >= a + 1
/// (modified Lentz algorithm).
fn gamma_q_cf(a: f64, x: f64) -> Result<f64, StatsError> {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            let ln_pre = -x + a * x.ln() - ln_gamma(a);
            return Ok(ln_pre.exp() * h);
        }
    }
    Err(StatsError::NoConvergence {
        routine: "gamma_q_cf",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_integer_factorials() {
        // Γ(n) = (n-1)!
        let facts: [f64; 7] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let lg = ln_gamma((n + 1) as f64);
            assert!((lg - f.ln()).abs() < 1e-10, "Γ({}) mismatch", n + 1);
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(π)
        let lg = ln_gamma(0.5);
        assert!((lg - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn gamma_p_boundaries() {
        assert_eq!(gamma_p(2.0, 0.0).unwrap(), 0.0);
        assert!((gamma_p(2.0, 1e6).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        for x in [0.1, 0.5, 1.0, 3.0, 10.0] {
            let p = gamma_p(1.0, x).unwrap();
            assert!((p - (1.0 - (-x).exp())).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn gamma_p_known_value() {
        // P(1.5, 1.5): chi-squared CDF with 3 dof at x = 3.0 ≈ 0.608375.
        let p = gamma_p(1.5, 1.5).unwrap();
        assert!((p - 0.608_374_823).abs() < 1e-8, "got {p}");
    }

    #[test]
    fn gamma_p_rejects_bad_params() {
        assert!(gamma_p(0.0, 1.0).is_err());
        assert!(gamma_p(-1.0, 1.0).is_err());
        assert!(gamma_p(1.0, -0.5).is_err());
        assert!(gamma_p(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn gamma_p_is_monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..100 {
            let x = i as f64 * 0.3;
            let p = gamma_p(4.0, x).unwrap();
            assert!(p >= prev);
            prev = p;
        }
    }
}
