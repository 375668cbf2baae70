//! Wavelet bases.
//!
//! A wavelet basis is described here by its orthonormal analysis filter
//! pair: the scaling (low-pass) filter `h` and the wavelet (high-pass)
//! filter `g`. The paper works exclusively with the Haar basis (Figure 1)
//! because it matches the sharp discontinuities of processor current
//! waveforms and admits a trivially cheap hardware implementation
//! (shift-register sums, Figure 14). [`WaveletFamily`] is the one basis
//! value every transform takes: Haar, plus the Daubechies ladder
//! (db2–db8) for the "which basis?" ablation the paper alludes to in
//! §2.1 and the §5 truncation study, which asks whether a smoother basis
//! buys monitor accuracy per retained tap.
//!
//! # Naming
//!
//! `WaveletFamily` follows the modern "dbN = N vanishing moments = 2N
//! taps" convention (PyWavelets, MATLAB): the 4-tap basis often called
//! "D4" is [`WaveletFamily::Db2`].

use std::sync::OnceLock;

/// `1/sqrt(2)`, the Haar filter coefficient.
pub const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

// Haar (paper Figure 1): a unit-box scaling function and a
// positive-then-negative pulse wavelet.
const HAAR_LO: [f64; 2] = [FRAC_1_SQRT_2, FRAC_1_SQRT_2];
const HAAR_HI: [f64; 2] = [FRAC_1_SQRT_2, -FRAC_1_SQRT_2];

// db2: h = [(1+√3), (3+√3), (3−√3), (1−√3)] / (4√2)
const D4_LO: [f64; 4] = [
    0.482_962_913_144_690_2,
    0.836_516_303_737_469,
    0.224_143_868_041_857_35,
    -0.129_409_522_550_921_44,
];
// g[k] = (−1)^k h[3−k]
const D4_HI: [f64; 4] = [
    -0.129_409_522_550_921_44,
    -0.224_143_868_041_857_35,
    0.836_516_303_737_469,
    -0.482_962_913_144_690_2,
];

/// A member of the orthonormal Daubechies ladder, Haar (db1) through db8.
///
/// Each family has `N` vanishing moments and a `2N`-tap filter bank: the
/// wavelet annihilates polynomials up to degree `N−1`, so smoother
/// families compress smooth impulse responses into fewer significant
/// coefficients (the question the `ext_wavelet_family` experiment puts to
/// the paper's Haar-first choice). Filter constants are exact: Haar and
/// db2 use the crate's vendored closed-form values; db3–db8 are
/// produced once (and cached) by deterministic spectral factorization of
/// the Daubechies polynomial, accurate to f64 round-off and verified by
/// the orthonormality and vanishing-moment tests.
///
/// Every bank satisfies the orthonormality conditions `Σ h[k]² = 1` and
/// `g[k] = (-1)^k h[L-1-k]` (quadrature mirror). The synthesis filters
/// of an orthonormal basis are the time-reverses of the analysis filters,
/// so the inverse transform needs no extra data.
///
/// # Examples
///
/// ```
/// use didt_dsp::wavelet::WaveletFamily;
///
/// assert_eq!(WaveletFamily::Db5.filter_len(), 10);
/// assert_eq!(WaveletFamily::Db5.vanishing_moments(), 5);
/// assert_eq!(WaveletFamily::parse("db3"), Some(WaveletFamily::Db3));
/// let h = WaveletFamily::Haar.lowpass();
/// assert!((h[0] - 0.5f64.sqrt()).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WaveletFamily {
    /// Haar (db1): 2 taps, 1 vanishing moment — the paper's basis.
    #[default]
    Haar,
    /// db2: 4 taps.
    Db2,
    /// db3: 6 taps.
    Db3,
    /// db4: 8 taps.
    Db4,
    /// db5: 10 taps.
    Db5,
    /// db6: 12 taps.
    Db6,
    /// db7: 14 taps.
    Db7,
    /// db8: 16 taps.
    Db8,
}

impl WaveletFamily {
    /// Every family, Haar first, in increasing filter length.
    pub const ALL: [WaveletFamily; 8] = [
        WaveletFamily::Haar,
        WaveletFamily::Db2,
        WaveletFamily::Db3,
        WaveletFamily::Db4,
        WaveletFamily::Db5,
        WaveletFamily::Db6,
        WaveletFamily::Db7,
        WaveletFamily::Db8,
    ];

    /// Number of vanishing moments `N` (the wavelet kills polynomials of
    /// degree `< N`); the filter has `2N` taps.
    #[must_use]
    pub fn vanishing_moments(self) -> usize {
        match self {
            WaveletFamily::Haar => 1,
            WaveletFamily::Db2 => 2,
            WaveletFamily::Db3 => 3,
            WaveletFamily::Db4 => 4,
            WaveletFamily::Db5 => 5,
            WaveletFamily::Db6 => 6,
            WaveletFamily::Db7 => 7,
            WaveletFamily::Db8 => 8,
        }
    }

    /// Scaling (low-pass) analysis filter coefficients.
    #[must_use]
    pub fn lowpass(self) -> &'static [f64] {
        match self {
            WaveletFamily::Haar => &HAAR_LO,
            _ => &self.bank().lo,
        }
    }

    /// Wavelet (high-pass) analysis filter coefficients.
    #[must_use]
    pub fn highpass(self) -> &'static [f64] {
        match self {
            WaveletFamily::Haar => &HAAR_HI,
            _ => &self.bank().hi,
        }
    }

    /// Short stable name (`"haar"`, `"db2"`…`"db8"`), used by manifests
    /// and the wire protocol.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WaveletFamily::Haar => "haar",
            WaveletFamily::Db2 => "db2",
            WaveletFamily::Db3 => "db3",
            WaveletFamily::Db4 => "db4",
            WaveletFamily::Db5 => "db5",
            WaveletFamily::Db6 => "db6",
            WaveletFamily::Db7 => "db7",
            WaveletFamily::Db8 => "db8",
        }
    }

    /// Filter length, `2N` taps.
    #[must_use]
    pub fn filter_len(self) -> usize {
        2 * self.vanishing_moments()
    }

    /// Deepest periodic pyramid for a power-of-two `window`: its dyadic
    /// depth, reduced while the coarsest step's input (`window >>
    /// (levels − 1)` samples) would be shorter than the filter. Never
    /// below 1; only the longer dbN banks reduce it.
    ///
    /// # Examples
    ///
    /// ```
    /// use didt_dsp::WaveletFamily;
    ///
    /// assert_eq!(WaveletFamily::Haar.periodic_levels(256), 8);
    /// assert_eq!(WaveletFamily::Db8.periodic_levels(256), 5);
    /// ```
    #[must_use]
    pub fn periodic_levels(self, window: usize) -> usize {
        let mut levels = window.trailing_zeros() as usize;
        while levels > 1 && (window >> (levels - 1)) < self.filter_len() {
            levels -= 1;
        }
        levels
    }

    /// Parse a family from its [`Self::name`] string (`"haar"`,
    /// `"db2"`…`"db8"`; `"db1"` is accepted as an alias for Haar).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "haar" | "db1" => Some(WaveletFamily::Haar),
            "db2" => Some(WaveletFamily::Db2),
            "db3" => Some(WaveletFamily::Db3),
            "db4" => Some(WaveletFamily::Db4),
            "db5" => Some(WaveletFamily::Db5),
            "db6" => Some(WaveletFamily::Db6),
            "db7" => Some(WaveletFamily::Db7),
            "db8" => Some(WaveletFamily::Db8),
            _ => None,
        }
    }

    fn bank(self) -> &'static FilterPair {
        let n = self.vanishing_moments();
        debug_assert!(n >= 2, "Haar handled without a generated bank");
        DB_BANKS[n - 2].get_or_init(|| {
            if n == 2 {
                // db2 uses the vendored closed-form constants.
                FilterPair {
                    lo: D4_LO.to_vec(),
                    hi: D4_HI.to_vec(),
                }
            } else {
                FilterPair::daubechies(n)
            }
        })
    }
}

/// An analysis filter bank generated (or vendored) once per family.
struct FilterPair {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

/// One `OnceLock` slot per generated family, db2 (index 0) through db8.
static DB_BANKS: [OnceLock<FilterPair>; 7] = [const { OnceLock::new() }; 7];

impl FilterPair {
    /// Build the minimum-phase Daubechies-`n` bank (`2n` taps) by
    /// spectral factorization: root-find the Daubechies polynomial
    /// `P(y) = Σ_{k<n} C(n−1+k, k)·yᵏ`, map each root into the `z`-plane,
    /// keep the root inside the unit circle, and expand
    /// `h(z) ∝ (1+z)ⁿ·Π(z−zᵢ)` normalized to `Σh = √2`. Fully
    /// deterministic (fixed starting points, fixed iteration budget) so
    /// every call — and every build — produces identical bits.
    fn daubechies(n: usize) -> FilterPair {
        let degree = n - 1;
        // Binomial coefficients C(n-1+k, k), exact in f64 for n <= 8.
        let mut poly = Vec::with_capacity(degree + 1);
        let mut c = 1.0f64;
        poly.push(c);
        for k in 1..=degree {
            c = c * (n - 1 + k) as f64 / k as f64;
            poly.push(c);
        }
        let roots = durand_kerner(&poly);
        // Ascending-power coefficients of (1+z)^n * Π (z - z_i).
        let mut coeffs = vec![Cx::new(1.0, 0.0)];
        for &y in &roots {
            // y = (2 - z - 1/z)/4  ⇒  z² - (2-4y)z + 1 = 0; the two roots
            // are reciprocal — keep the minimum-phase one (|z| < 1).
            let b = Cx::new(2.0, 0.0).sub(y.scale(4.0));
            let s = b.mul(b).sub(Cx::new(4.0, 0.0)).sqrt();
            let z1 = b.add(s).scale(0.5);
            let z2 = b.sub(s).scale(0.5);
            let z = if z1.norm() <= z2.norm() { z1 } else { z2 };
            coeffs = poly_mul(&coeffs, &[z.neg(), Cx::new(1.0, 0.0)]);
        }
        for _ in 0..n {
            coeffs = poly_mul(&coeffs, &[Cx::new(1.0, 0.0), Cx::new(1.0, 0.0)]);
        }
        // Conjugate root pairs make the product real; normalize Σh = √2
        // and reverse into the crate's correlation ordering (h[0] is the
        // largest leading tap, matching D4_LO).
        let sum: f64 = coeffs.iter().map(|c| c.re).sum();
        let scale = std::f64::consts::SQRT_2 / sum;
        let lo: Vec<f64> = coeffs.iter().rev().map(|c| c.re * scale).collect();
        debug_assert_eq!(lo.len(), 2 * n);
        let l = lo.len();
        let hi: Vec<f64> = (0..l)
            .map(|k| {
                let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                sign * lo[l - 1 - k]
            })
            .collect();
        FilterPair { lo, hi }
    }
}

/// Minimal complex arithmetic for the root finder (kept private: it needs
/// `neg` and `sqrt`, which the PDN's impedance-only [`crate::Complex`]
/// does not carry).
#[derive(Debug, Clone, Copy)]
struct Cx {
    re: f64,
    im: f64,
}

impl Cx {
    fn new(re: f64, im: f64) -> Cx {
        Cx { re, im }
    }

    fn add(self, o: Cx) -> Cx {
        Cx::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: Cx) -> Cx {
        Cx::new(self.re - o.re, self.im - o.im)
    }

    fn mul(self, o: Cx) -> Cx {
        Cx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    fn div(self, o: Cx) -> Cx {
        let d = o.re * o.re + o.im * o.im;
        Cx::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }

    fn scale(self, s: f64) -> Cx {
        Cx::new(self.re * s, self.im * s)
    }

    fn neg(self) -> Cx {
        Cx::new(-self.re, -self.im)
    }

    fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Principal square root.
    fn sqrt(self) -> Cx {
        let r = self.norm();
        let re = ((r + self.re) * 0.5).max(0.0).sqrt();
        let im = ((r - self.re) * 0.5).max(0.0).sqrt();
        Cx::new(re, if self.im < 0.0 { -im } else { im })
    }
}

/// Ascending-power complex polynomial product.
fn poly_mul(a: &[Cx], b: &[Cx]) -> Vec<Cx> {
    let mut out = vec![Cx::new(0.0, 0.0); a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] = out[i + j].add(ai.mul(bj));
        }
    }
    out
}

/// All complex roots of a real polynomial (ascending coefficients) via
/// the Durand–Kerner simultaneous iteration. Degree ≤ 7 here; a fixed
/// 200-sweep budget converges those to machine precision.
fn durand_kerner(poly: &[f64]) -> Vec<Cx> {
    let degree = poly.len() - 1;
    if degree == 0 {
        return Vec::new();
    }
    // Monic normalization for stable iteration.
    let lead = poly[degree];
    let monic: Vec<f64> = poly.iter().map(|c| c / lead).collect();
    let eval = |z: Cx| {
        let mut acc = Cx::new(0.0, 0.0);
        for &c in monic.iter().rev() {
            acc = acc.mul(z).add(Cx::new(c, 0.0));
        }
        acc
    };
    let seed = Cx::new(0.4, 0.9);
    let mut roots = Vec::with_capacity(degree);
    let mut p = seed;
    for _ in 0..degree {
        roots.push(p);
        p = p.mul(seed);
    }
    for _ in 0..200 {
        for i in 0..degree {
            let mut den = Cx::new(1.0, 0.0);
            for j in 0..degree {
                if j != i {
                    den = den.mul(roots[i].sub(roots[j]));
                }
            }
            roots[i] = roots[i].sub(eval(roots[i]).div(den));
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_orthonormal(w: WaveletFamily) {
        let h = w.lowpass();
        let g = w.highpass();
        assert_eq!(h.len(), g.len());
        // Unit energy.
        let eh: f64 = h.iter().map(|x| x * x).sum();
        let eg: f64 = g.iter().map(|x| x * x).sum();
        assert!((eh - 1.0).abs() < 1e-12, "{} lowpass energy {eh}", w.name());
        assert!(
            (eg - 1.0).abs() < 1e-12,
            "{} highpass energy {eg}",
            w.name()
        );
        // Low/high orthogonality.
        let dot: f64 = h.iter().zip(g).map(|(a, b)| a * b).sum();
        assert!(dot.abs() < 1e-12, "{} h·g = {dot}", w.name());
        // QMF relation g[k] = (-1)^k h[L-1-k].
        let l = h.len();
        for k in 0..l {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            assert!(
                (g[k] - sign * h[l - 1 - k]).abs() < 1e-12,
                "{} QMF at {k}",
                w.name()
            );
        }
        // Low-pass sums to sqrt(2) (preserves DC), high-pass sums to 0.
        let sh: f64 = h.iter().sum();
        let sg: f64 = g.iter().sum();
        assert!((sh - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(sg.abs() < 1e-12);
    }

    #[test]
    fn haar_is_orthonormal() {
        check_orthonormal(WaveletFamily::Haar);
        assert_eq!(WaveletFamily::Haar.filter_len(), 2);
    }

    #[test]
    fn db4_is_orthonormal() {
        // The 4-tap "D4" bank is db2 in vanishing-moment naming.
        check_orthonormal(WaveletFamily::Db2);
        assert_eq!(WaveletFamily::Db2.filter_len(), 4);
    }

    #[test]
    fn db4_has_vanishing_first_moment() {
        // Two vanishing moments: Σ k·g[k] = 0 as well as Σ g[k] = 0.
        let g = WaveletFamily::Db2.highpass();
        let m1: f64 = g.iter().enumerate().map(|(k, &v)| k as f64 * v).sum();
        assert!(m1.abs() < 1e-10, "first moment {m1}");
    }

    #[test]
    fn names_distinct() {
        let mut names: Vec<&str> = WaveletFamily::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "family names collide: {names:?}");
    }

    #[test]
    fn every_family_is_orthonormal() {
        for family in WaveletFamily::ALL {
            check_orthonormal(family);
            assert_eq!(family.lowpass().len(), family.filter_len());
            assert_eq!(family.filter_len(), 2 * family.vanishing_moments());
        }
    }

    #[test]
    fn family_haar_and_db2_reuse_vendored_constants() {
        // Bit-identity, not tolerance: Haar and db2 are the vendored
        // closed-form banks, never the generator's output.
        assert_eq!(WaveletFamily::Haar.lowpass(), HAAR_LO);
        assert_eq!(WaveletFamily::Haar.highpass(), HAAR_HI);
        assert_eq!(WaveletFamily::Db2.lowpass(), D4_LO);
        assert_eq!(WaveletFamily::Db2.highpass(), D4_HI);
    }

    #[test]
    fn generated_banks_match_published_leading_taps() {
        // Spot-check the generator against the widely published db3/db4
        // leading coefficients (PyWavelets / Daubechies 1992, Table 6.1).
        let db3 = WaveletFamily::Db3.lowpass();
        assert!((db3[0] - 0.332_670_552_950_956_9).abs() < 1e-9, "{db3:?}");
        assert!((db3[1] - 0.806_891_509_313_338_8).abs() < 1e-9, "{db3:?}");
        let db4 = WaveletFamily::Db4.lowpass();
        assert!((db4[0] - 0.230_377_813_308_855_23).abs() < 1e-9, "{db4:?}");
        assert!((db4[1] - 0.714_846_570_552_541_5).abs() < 1e-9, "{db4:?}");
        let db8 = WaveletFamily::Db8.lowpass();
        assert!((db8[0] - 0.054_415_842_243_081_6).abs() < 1e-9, "{db8:?}");
    }

    #[test]
    fn vanishing_moments_kill_low_degree_monomials() {
        // dbN: Σ kᵖ·g[k] = 0 for p < N. Use a relative tolerance — the
        // raw moment sums grow like L^p (k⁷ ≈ 1.7e8 for db8).
        for family in WaveletFamily::ALL {
            let g = family.highpass();
            let n = family.vanishing_moments();
            for p in 0..n {
                let moment: f64 = g
                    .iter()
                    .enumerate()
                    .map(|(k, &v)| (k as f64).powi(p as i32) * v)
                    .sum();
                let scale: f64 = g
                    .iter()
                    .enumerate()
                    .map(|(k, &v)| (k as f64).powi(p as i32) * v.abs())
                    .sum::<f64>()
                    .max(1.0);
                assert!(
                    moment.abs() / scale < 1e-9,
                    "{} moment p={p}: {moment}",
                    family.name()
                );
            }
        }
    }

    #[test]
    fn parse_roundtrips_every_family() {
        for family in WaveletFamily::ALL {
            assert_eq!(WaveletFamily::parse(family.name()), Some(family));
        }
        assert_eq!(WaveletFamily::parse("db1"), Some(WaveletFamily::Haar));
        assert_eq!(WaveletFamily::parse("coif1"), None);
        assert_eq!(WaveletFamily::parse("sym5"), None);
    }
}
