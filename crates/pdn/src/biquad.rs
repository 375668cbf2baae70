//! Second-order IIR (biquad) filtering in direct form II transposed.

/// A normalized biquad filter
/// `y[n] = b0·x[n] + b1·x[n-1] + b2·x[n-2] − a1·y[n-1] − a2·y[n-2]`.
///
/// This is the discretized PDN impedance: input current (A), output
/// voltage droop (V). Direct form II transposed keeps the state to two
/// numbers and is numerically well behaved for the low-Q/low-frequency
/// ratios used here.
///
/// # Examples
///
/// ```
/// use didt_pdn::Biquad;
///
/// // A pure-gain "filter".
/// let mut f = Biquad::new([2.0, 0.0, 0.0], [0.0, 0.0]);
/// assert_eq!(f.step(3.0), 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    b: [f64; 3],
    a: [f64; 2],
    w1: f64,
    w2: f64,
}

impl Biquad {
    /// Create a biquad from normalized feed-forward `b = [b0, b1, b2]`
    /// and feedback `a = [a1, a2]` coefficients (`a0` is taken as 1).
    #[must_use]
    pub fn new(b: [f64; 3], a: [f64; 2]) -> Self {
        Biquad {
            b,
            a,
            w1: 0.0,
            w2: 0.0,
        }
    }

    /// Feed-forward coefficients.
    #[must_use]
    pub fn b(&self) -> [f64; 3] {
        self.b
    }

    /// Feedback coefficients (excluding the implicit `a0 = 1`).
    #[must_use]
    pub fn a(&self) -> [f64; 2] {
        self.a
    }

    /// Process one sample.
    pub fn step(&mut self, x: f64) -> f64 {
        let y = self.b[0] * x + self.w1;
        self.w1 = self.b[1] * x - self.a[0] * y + self.w2;
        self.w2 = self.b[2] * x - self.a[1] * y;
        y
    }

    /// Clear the filter state.
    pub fn reset(&mut self) {
        self.w1 = 0.0;
        self.w2 = 0.0;
    }

    /// `true` when both poles lie strictly inside the unit circle.
    #[must_use]
    pub fn is_stable(&self) -> bool {
        // Jury stability criterion for a 2nd-order polynomial
        // z² + a1 z + a2.
        let (a1, a2) = (self.a[0], self.a[1]);
        a2 < 1.0 && (a2 - a1) > -1.0 && (a2 + a1) > -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_filter() {
        let mut f = Biquad::new([1.0, 0.0, 0.0], [0.0, 0.0]);
        for x in [1.0, -2.0, 3.5] {
            assert_eq!(f.step(x), x);
        }
    }

    #[test]
    fn delay_filter() {
        let mut f = Biquad::new([0.0, 1.0, 0.0], [0.0, 0.0]);
        assert_eq!(f.step(5.0), 0.0);
        assert_eq!(f.step(0.0), 5.0);
        assert_eq!(f.step(0.0), 0.0);
    }

    #[test]
    fn feedback_accumulator() {
        // y[n] = x[n] + y[n-1]: integrator (a1 = -1).
        let mut f = Biquad::new([1.0, 0.0, 0.0], [-1.0, 0.0]);
        assert_eq!(f.step(1.0), 1.0);
        assert_eq!(f.step(1.0), 2.0);
        assert_eq!(f.step(1.0), 3.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut f = Biquad::new([1.0, 1.0, 0.0], [0.0, 0.0]);
        f.step(7.0);
        f.reset();
        assert_eq!(f.step(0.0), 0.0);
    }

    #[test]
    fn dc_gain_constant_input() {
        let mut f = Biquad::new([0.5, 0.2, 0.1], [-0.3, 0.1]);
        // DC gain Σb / (1 + Σa).
        let dc = (0.5 + 0.2 + 0.1) / (1.0 - 0.3 + 0.1);
        let mut y = 0.0;
        for _ in 0..10_000 {
            y = f.step(1.0);
        }
        assert!((y - dc).abs() < 1e-9);
    }

    #[test]
    fn stability_criterion() {
        assert!(Biquad::new([1.0, 0.0, 0.0], [0.0, 0.0]).is_stable());
        assert!(Biquad::new([1.0, 0.0, 0.0], [-1.8, 0.81]).is_stable());
        assert!(!Biquad::new([1.0, 0.0, 0.0], [0.0, 1.0]).is_stable());
        assert!(!Biquad::new([1.0, 0.0, 0.0], [-2.0, 1.0]).is_stable());
    }

    #[test]
    fn matches_direct_form_one_reference() {
        let b = [0.3, -0.2, 0.05];
        let a = [-0.5, 0.25];
        let mut f = Biquad::new(b, a);
        let x: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        // Direct form I reference.
        let mut ref_y = vec![0.0; x.len()];
        for n in 0..x.len() {
            let mut acc = b[0] * x[n];
            if n >= 1 {
                acc += b[1] * x[n - 1] - a[0] * ref_y[n - 1];
            }
            if n >= 2 {
                acc += b[2] * x[n - 2] - a[1] * ref_y[n - 2];
            }
            ref_y[n] = acc;
        }
        for (n, &xi) in x.iter().enumerate() {
            let y = f.step(xi);
            assert!((y - ref_y[n]).abs() < 1e-12, "n = {n}");
        }
    }
}
