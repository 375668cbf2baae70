//! Hardware-style sliding Haar term computation (paper Figure 14).
//!
//! Each wavelet convolution term is a windowed Haar dot product against
//! the recent current history. Because the Haar wavelet is a pair of
//! constant pulses, a term changes by only **three taps** when the window
//! slides one cycle: a sample enters the positive pulse, one crosses from
//! positive to negative (counted twice), and one leaves the negative
//! pulse. That is exactly the shift-register-plus-adders structure of the
//! paper's Figure 14, and what makes the monitor hardware-feasible.

/// Whether a term tracks a detail (wavelet) or approximation (scaling)
/// coefficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermKind {
    /// Haar wavelet coefficient (bandpass: +pulse then −pulse).
    Detail,
    /// Haar scaling coefficient (lowpass: single +pulse).
    Approximation,
}

/// One incrementally-maintained Haar term over a sliding current window.
///
/// The term's value always equals the dot product of the dyadic Haar
/// basis function `(level, index)` with the most recent `window` current
/// samples (lag domain: lag 0 = newest sample), maintained with O(1) work
/// per cycle.
///
/// # Examples
///
/// ```
/// use didt_core::monitor::{SlidingTerm, TermKind};
///
/// // Level-1 detail at offset 0: (i[n] - i[n-1]) / sqrt(2).
/// let mut t = SlidingTerm::new(TermKind::Detail, 1, 0);
/// let mut ring = didt_core::monitor::HistoryRing::new(8);
/// ring.push(3.0);
/// t.update(&ring);
/// ring.push(5.0);
/// t.update(&ring);
/// assert!((t.value() - (5.0 - 3.0) / 2.0f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlidingTerm {
    kind: TermKind,
    level: usize,
    /// Lag of the newest sample covered: `index * 2^level`.
    offset: usize,
    span: usize,
    norm: f64,
    /// Unnormalized pulse sum (positive minus negative region).
    raw: f64,
}

impl SlidingTerm {
    /// Create a term for the dyadic Haar basis function at `level`
    /// (1 = finest) and position `index` within the window.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or ≥ 32.
    #[must_use]
    pub fn new(kind: TermKind, level: usize, index: usize) -> Self {
        assert!(level > 0 && level < 32, "level out of range");
        let span = 1usize << level;
        SlidingTerm {
            kind,
            level,
            offset: index * span,
            span,
            norm: 1.0 / (span as f64).sqrt(),
            raw: 0.0,
        }
    }

    /// The term's basis level (1 = finest).
    #[must_use]
    pub fn level(&self) -> usize {
        self.level
    }

    /// The term's kind.
    #[must_use]
    pub fn kind(&self) -> TermKind {
        self.kind
    }

    /// Oldest lag this term reads; the history ring must be at least this
    /// large.
    #[must_use]
    pub fn max_lag(&self) -> usize {
        self.offset + self.span
    }

    /// Current coefficient value (normalized).
    #[must_use]
    pub fn value(&self) -> f64 {
        self.raw * self.norm
    }

    /// The normalisation `1/√span` that scales the raw pulse sum into
    /// the coefficient.
    pub(crate) fn norm(&self) -> f64 {
        self.norm
    }

    /// The three lags a one-cycle slide reads: the sample entering the
    /// window, the one crossing from the + to the − pulse (read by
    /// detail terms only), and the one leaving it.
    pub(crate) fn taps(&self) -> [usize; 3] {
        [
            self.offset,
            self.offset + self.span / 2,
            self.offset + self.span,
        ]
    }

    /// Slide the window one cycle: must be called exactly once per ring
    /// push, *after* the push.
    pub fn update(&mut self, ring: &HistoryRing) {
        let [newest, crossing, oldest] = self.taps();
        let newest_in = ring.lag(newest);
        let oldest_out = ring.lag(oldest);
        match self.kind {
            TermKind::Detail => {
                let crossing = ring.lag(crossing);
                // Enters +pulse, moves + → − (double weight), leaves −.
                self.raw += newest_in - 2.0 * crossing + oldest_out;
            }
            TermKind::Approximation => {
                self.raw += newest_in - oldest_out;
            }
        }
    }

    /// Recompute the value exactly from the ring (reference
    /// implementation; used by tests to check the incremental update).
    #[must_use]
    pub fn recompute(&self, ring: &HistoryRing) -> f64 {
        let mut acc = 0.0;
        for m in 0..self.span {
            let x = ring.lag(self.offset + m);
            let sign = match self.kind {
                TermKind::Approximation => 1.0,
                TermKind::Detail => {
                    if m < self.span / 2 {
                        1.0
                    } else {
                        -1.0
                    }
                }
            };
            acc += sign * x;
        }
        acc * self.norm
    }
}

/// A ring buffer of recent current samples, indexed by lag.
///
/// `lag(0)` is the newest sample; lags beyond the history seen so far
/// read as zero (the quiescent pre-history).
///
/// The ring is *mirrored*: it keeps `cap` lags (a power of two) in
/// `2·cap` slots, and every push writes its sample twice, at `pos` and
/// at `pos + cap`, moving `pos` one slot *down*. Lags `0..cap` are then
/// always the single forward slice `buf[pos..pos + cap]`
/// ([`HistoryRing::lags`]), so readers index it directly instead of
/// wrapping and masking per read.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRing {
    buf: Vec<f64>,
    /// Slot of the newest sample, in `0..cap`.
    pos: usize,
}

impl HistoryRing {
    /// Create a ring remembering at least `capacity` lags (rounded up to
    /// a power of two).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let cap = capacity.next_power_of_two();
        HistoryRing {
            buf: vec![0.0; 2 * cap],
            pos: 0,
        }
    }

    /// Push the newest sample.
    pub fn push(&mut self, x: f64) {
        let cap = self.capacity();
        self.pos = (self.pos + cap - 1) & (cap - 1);
        self.buf[self.pos] = x;
        self.buf[self.pos + cap] = x;
    }

    /// The whole history newest-first: element `m` is [`lag(m)`](Self::lag),
    /// for every lag below the capacity.
    #[must_use]
    pub fn lags(&self) -> &[f64] {
        &self.buf[self.pos..self.pos + self.capacity()]
    }

    /// Read the sample `lag` cycles ago (0 = newest).
    ///
    /// # Panics
    ///
    /// Panics if `lag` is not below the ring capacity.
    #[must_use]
    pub fn lag(&self, lag: usize) -> f64 {
        assert!(lag < self.capacity(), "lag {lag} exceeds ring capacity");
        self.buf[self.pos + lag]
    }

    /// Ring capacity (maximum addressable lag + 1).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len() / 2
    }

    /// Dot product of the weight vector `h` with the lag history:
    /// `Σ_m h[m] · lag(m)`, bit-identical to the naive per-lag loop
    /// (one accumulator from `0.0`, `m` increasing) but as one forward
    /// zip over the mirrored ring's lag slice, with no per-tap wrap or
    /// bounds assert.
    ///
    /// # Panics
    ///
    /// Panics when `h` needs more lags than the ring holds.
    #[must_use]
    pub fn dot(&self, h: &[f64]) -> f64 {
        let k = h.len();
        assert!(k <= self.capacity(), "{k} taps exceed ring capacity");
        let mut acc = 0.0;
        for (&w, &x) in h.iter().zip(&self.buf[self.pos..self.pos + k]) {
            acc += w * x;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(term: &mut SlidingTerm, ring: &mut HistoryRing, xs: &[f64]) {
        for &x in xs {
            ring.push(x);
            term.update(ring);
        }
    }

    #[test]
    fn detail_level1_matches_hand_value() {
        let mut ring = HistoryRing::new(16);
        let mut t = SlidingTerm::new(TermKind::Detail, 1, 0);
        drive(&mut t, &mut ring, &[1.0, 4.0]);
        // + on lag 0 (newest = 4), − on lag 1 (= 1).
        assert!((t.value() - (4.0 - 1.0) / 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn approximation_is_windowed_sum() {
        let mut ring = HistoryRing::new(16);
        let mut t = SlidingTerm::new(TermKind::Approximation, 2, 0);
        drive(&mut t, &mut ring, &[1.0, 2.0, 3.0, 4.0]);
        assert!((t.value() - 10.0 / 2.0).abs() < 1e-12); // norm = 1/2
    }

    #[test]
    fn incremental_matches_recompute_over_long_run() {
        let mut ring = HistoryRing::new(512);
        let mut terms = vec![
            SlidingTerm::new(TermKind::Detail, 1, 3),
            SlidingTerm::new(TermKind::Detail, 4, 2),
            SlidingTerm::new(TermKind::Detail, 6, 1),
            SlidingTerm::new(TermKind::Approximation, 8, 0),
        ];
        for n in 0..5000 {
            ring.push((n as f64 * 0.7).sin() * 30.0 + 40.0);
            for t in &mut terms {
                t.update(&ring);
            }
            if n % 311 == 0 {
                for t in &terms {
                    let exact = t.recompute(&ring);
                    assert!(
                        (t.value() - exact).abs() < 1e-8,
                        "n = {n}, term {t:?}: {} vs {exact}",
                        t.value()
                    );
                }
            }
        }
    }

    #[test]
    fn constant_signal_zeroes_details() {
        let mut ring = HistoryRing::new(64);
        let mut t = SlidingTerm::new(TermKind::Detail, 4, 0);
        drive(&mut t, &mut ring, &vec![7.0; 64]);
        assert!(t.value().abs() < 1e-12);
    }

    #[test]
    fn offsets_shift_support() {
        let mut ring = HistoryRing::new(64);
        let mut t0 = SlidingTerm::new(TermKind::Detail, 1, 0);
        let mut t1 = SlidingTerm::new(TermKind::Detail, 1, 1);
        let xs = [5.0, 1.0, 2.0, 8.0];
        for &x in &xs {
            ring.push(x);
            t0.update(&ring);
            t1.update(&ring);
        }
        // t0 covers lags 0-1 (8, 2); t1 covers lags 2-3 (1, 5).
        let r2 = 2.0_f64.sqrt();
        assert!((t0.value() - (8.0 - 2.0) / r2).abs() < 1e-12);
        assert!((t1.value() - (1.0 - 5.0) / r2).abs() < 1e-12);
    }

    #[test]
    fn ring_prehistory_is_zero() {
        let ring = HistoryRing::new(8);
        assert_eq!(ring.lag(0), 0.0);
        assert_eq!(ring.lag(7), 0.0);
    }

    #[test]
    fn lags_slice_is_the_lag_walk_across_wraps() {
        let mut ring = HistoryRing::new(5); // capacity 8
        assert_eq!(ring.capacity(), 8);
        for n in 0..21 {
            ring.push(f64::from(n));
            let lags = ring.lags();
            assert_eq!(lags.len(), 8);
            for (m, &x) in lags.iter().enumerate() {
                assert_eq!(x, ring.lag(m), "push {n}, lag {m}");
                let expected = if m <= n as usize {
                    f64::from(n) - m as f64
                } else {
                    0.0
                };
                assert_eq!(x, expected, "push {n}, lag {m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds ring capacity")]
    fn ring_rejects_excess_lag() {
        let ring = HistoryRing::new(8);
        let _ = ring.lag(4096);
    }

    #[test]
    fn max_lag_accounts_for_offset() {
        let t = SlidingTerm::new(TermKind::Detail, 3, 2);
        assert_eq!(t.max_lag(), 2 * 8 + 8);
    }

    #[test]
    fn dot_is_bitwise_identical_to_lag_walk() {
        let mut ring = HistoryRing::new(100); // capacity 128, buf.len() = 256
        let h: Vec<f64> = (0..100)
            .map(|m| (m as f64 * 0.31).cos() / (m as f64 + 1.0))
            .collect();
        // Check at every fill level: pre-history, partially wrapped,
        // fully wrapped, and many wraps deep.
        for n in 0..400 {
            let naive: f64 = h
                .iter()
                .enumerate()
                .map(|(m, &w)| w * ring.lag(m))
                .fold(0.0, |acc, term| acc + term);
            assert_eq!(ring.dot(&h).to_bits(), naive.to_bits(), "cycle {n}");
            ring.push((n as f64 * 0.7).sin() * 25.0 + 40.0);
        }
    }

    #[test]
    fn dot_with_empty_weights_is_zero() {
        let mut ring = HistoryRing::new(8);
        ring.push(5.0);
        assert_eq!(ring.dot(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceed ring capacity")]
    fn dot_rejects_oversized_weights() {
        let ring = HistoryRing::new(8);
        let _ = ring.dot(&[0.0; 4096]);
    }
}
