//! Branch prediction: the paper's combined predictor (Table 1).
//!
//! A 4 K-entry bimodal table and a 4 K-entry gshare with 12 bits of
//! global history, arbitrated by a 4 K-entry chooser, plus a 1 K-entry
//! 2-way BTB and a 32-entry return-address stack. The RAS is modeled for
//! completeness though the synthetic workloads exercise conditional
//! branches predominantly.

use crate::config::PredictorConfig;

/// Saturating 2-bit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter2(u8);

impl Counter2 {
    fn predict(self) -> bool {
        self.0 >= 2
    }

    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// The combined bimodal/gshare predictor with chooser, BTB and RAS.
///
/// # Examples
///
/// ```
/// use didt_uarch::branch::BranchPredictor;
/// use didt_uarch::ProcessorConfig;
///
/// let mut bp = BranchPredictor::new(ProcessorConfig::table1().predictor);
/// // An always-taken branch trains quickly.
/// for _ in 0..8 {
///     let pred = bp.predict(0x400);
///     bp.update(0x400, true, pred);
/// }
/// assert!(bp.predict(0x400));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: Vec<Counter2>,
    gshare: Vec<Counter2>,
    /// Chooser counters: >= 2 selects gshare.
    chooser: Vec<Counter2>,
    history: u64,
    history_mask: u64,
    btb_tags: Vec<u64>,
    btb_ways: usize,
    /// Hoisted `btb_tags.len() / btb_ways`, so the hot BTB paths do no
    /// per-call division.
    btb_sets: usize,
    lookups: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Build the predictor from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if any table size is zero or not a power of two.
    #[must_use]
    pub fn new(cfg: PredictorConfig) -> Self {
        for (name, n) in [
            ("bimodal_entries", cfg.bimodal_entries),
            ("gshare_entries", cfg.gshare_entries),
            ("chooser_entries", cfg.chooser_entries),
            ("btb_entries", cfg.btb_entries),
        ] {
            assert!(
                n > 0 && n.is_power_of_two(),
                "{name} must be a power of two"
            );
        }
        // Counters start weakly taken (most branches are loop back-edges)
        // and the chooser starts on bimodal, which trains in two
        // encounters per site; it migrates to gshare where history helps.
        BranchPredictor {
            bimodal: vec![Counter2(2); cfg.bimodal_entries],
            gshare: vec![Counter2(2); cfg.gshare_entries],
            chooser: vec![Counter2(1); cfg.chooser_entries],
            history: 0,
            history_mask: (1u64 << cfg.gshare_history_bits) - 1,
            btb_tags: vec![u64::MAX; cfg.btb_entries],
            btb_ways: cfg.btb_ways,
            btb_sets: cfg.btb_entries / cfg.btb_ways,
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn bimodal_index(&self, pc: u64) -> usize {
        (pc >> 2) as usize & (self.bimodal.len() - 1)
    }

    fn gshare_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.history_mask) as usize & (self.gshare.len() - 1)
    }

    fn chooser_index(&self, pc: u64) -> usize {
        (pc >> 2) as usize & (self.chooser.len() - 1)
    }

    /// Predict the direction of the branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        let use_gshare = self.chooser[self.chooser_index(pc)].predict();
        if use_gshare {
            self.gshare[self.gshare_index(pc)].predict()
        } else {
            self.bimodal[self.bimodal_index(pc)].predict()
        }
    }

    /// Predict the branch at `pc` and immediately train with the actual
    /// outcome — the fused form of [`BranchPredictor::predict`] followed
    /// by [`BranchPredictor::update`], computing each table index once.
    /// Returns the prediction, and is bit-identical to the split calls
    /// (the pipeline's fetch stage always predicts and trains
    /// back-to-back).
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let bi = self.bimodal_index(pc);
        let gi = self.gshare_index(pc);
        let ci = self.chooser_index(pc);
        let bimodal_pred = self.bimodal[bi].predict();
        let gshare_pred = self.gshare[gi].predict();
        let predicted = if self.chooser[ci].predict() {
            gshare_pred
        } else {
            bimodal_pred
        };
        self.lookups += 1;
        if predicted != taken {
            self.mispredicts += 1;
        }
        let bimodal_correct = bimodal_pred == taken;
        let gshare_correct = gshare_pred == taken;
        // Chooser trains toward whichever component was right.
        if gshare_correct != bimodal_correct {
            self.chooser[ci].update(gshare_correct);
        }
        self.bimodal[bi].update(taken);
        self.gshare[gi].update(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
        predicted
    }

    /// Train with the actual outcome; `predicted` must be the direction
    /// returned by the matching [`BranchPredictor::predict`] call so the
    /// misprediction statistics stay truthful.
    pub fn update(&mut self, pc: u64, taken: bool, predicted: bool) {
        self.lookups += 1;
        if predicted != taken {
            self.mispredicts += 1;
        }
        let bi = self.bimodal_index(pc);
        let gi = self.gshare_index(pc);
        let ci = self.chooser_index(pc);
        let bimodal_correct = self.bimodal[bi].predict() == taken;
        let gshare_correct = self.gshare[gi].predict() == taken;
        // Chooser trains toward whichever component was right.
        if gshare_correct != bimodal_correct {
            self.chooser[ci].update(gshare_correct);
        }
        self.bimodal[bi].update(taken);
        self.gshare[gi].update(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
    }

    /// Look up the target for `pc` in the BTB; `true` means the target is
    /// known (taken branches with a BTB miss still pay a redirect).
    pub fn btb_lookup(&mut self, pc: u64) -> bool {
        let set = (pc >> 2) as usize & (self.btb_sets - 1);
        let base = set * self.btb_ways;
        let ways = &mut self.btb_tags[base..base + self.btb_ways];
        if let Some(pos) = ways.iter().position(|&t| t == pc) {
            // Move to MRU (front).
            ways[..=pos].rotate_right(1);
            ways[0] = pc;
            true
        } else {
            false
        }
    }

    /// Install `pc` into the BTB (called for taken branches).
    pub fn btb_insert(&mut self, pc: u64) {
        let set = (pc >> 2) as usize & (self.btb_sets - 1);
        let base = set * self.btb_ways;
        let ways = &mut self.btb_tags[base..base + self.btb_ways];
        if !ways.contains(&pc) {
            ways.rotate_right(1);
            ways[0] = pc;
        }
    }

    /// Mispredicted branches.
    #[must_use]
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Rewind every table, the history register, the BTB and the
    /// statistics to the as-built state — bit-identical to a fresh
    /// `BranchPredictor::new` with the same configuration, reusing the
    /// table allocations (the processor-recycle path depends on this).
    pub fn reset(&mut self) {
        self.bimodal.fill(Counter2(2));
        self.gshare.fill(Counter2(2));
        self.chooser.fill(Counter2(1));
        self.history = 0;
        self.btb_tags.fill(u64::MAX);
        self.lookups = 0;
        self.mispredicts = 0;
    }

    /// Misprediction rate (0 when no branches seen).
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProcessorConfig;

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(ProcessorConfig::table1().predictor)
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter2(0);
        for _ in 0..10 {
            c.update(true);
        }
        assert_eq!(c.0, 3);
        for _ in 0..10 {
            c.update(false);
        }
        assert_eq!(c.0, 0);
    }

    #[test]
    fn learns_biased_branch() {
        let mut bp = predictor();
        for _ in 0..20 {
            let p = bp.predict(0x100);
            bp.update(0x100, true, p);
        }
        assert!(bp.predict(0x100));
        // Trained predictor is nearly perfect on the bias.
        assert!(bp.mispredict_rate() < 0.3);
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        // T N T N ... is hard for bimodal (counters oscillate) but easy
        // for gshare once history correlates.
        let mut bp = predictor();
        let mut correct_late = 0;
        for i in 0..4000 {
            let taken = i % 2 == 0;
            let p = bp.predict(0x200);
            if i >= 2000 && p == taken {
                correct_late += 1;
            }
            bp.update(0x200, taken, p);
        }
        assert!(
            correct_late > 1900,
            "late accuracy {correct_late}/2000 on alternating pattern"
        );
    }

    #[test]
    fn random_branches_mispredict_heavily() {
        let mut bp = predictor();
        let mut state = 0x12345u64;
        for _ in 0..4000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let taken = state & 1 == 1;
            let p = bp.predict(0x300);
            bp.update(0x300, taken, p);
        }
        assert!(bp.mispredict_rate() > 0.35, "rate {}", bp.mispredict_rate());
    }

    #[test]
    fn distinct_sites_do_not_interfere_in_bimodal() {
        let mut bp = predictor();
        // Two strongly biased sites with opposite bias.
        for _ in 0..50 {
            let p1 = bp.predict(0x1000);
            bp.update(0x1000, true, p1);
            let p2 = bp.predict(0x2000);
            bp.update(0x2000, false, p2);
        }
        assert!(bp.predict(0x1000));
        assert!(!bp.predict(0x2000));
    }

    #[test]
    fn btb_insert_then_lookup() {
        let mut bp = predictor();
        assert!(!bp.btb_lookup(0x400));
        bp.btb_insert(0x400);
        assert!(bp.btb_lookup(0x400));
    }

    #[test]
    fn btb_capacity_eviction() {
        let mut bp = predictor();
        // Fill one set (2 ways) with 3 conflicting entries.
        let sets = 1024 / 2;
        let a = 0x4u64;
        let b = a + (sets as u64) * 4;
        let c = b + (sets as u64) * 4;
        bp.btb_insert(a);
        bp.btb_insert(b);
        bp.btb_insert(c); // evicts a (LRU)
        assert!(!bp.btb_lookup(a));
        assert!(bp.btb_lookup(b));
        assert!(bp.btb_lookup(c));
    }

    #[test]
    fn fused_predict_and_update_matches_split_calls() {
        let mut fused = predictor();
        let mut split = predictor();
        let mut state = 0x9E37u64;
        for i in 0..6000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pc = 0x400 + (state % 97) * 4;
            let taken = match i % 3 {
                0 => true,
                1 => i % 2 == 0,
                _ => state & 8 != 0,
            };
            let a = fused.predict_and_update(pc, taken);
            let b = split.predict(pc);
            split.update(pc, taken, b);
            assert_eq!(a, b, "iteration {i}");
        }
        assert_eq!(fused.lookups, split.lookups);
        assert_eq!(fused.mispredicts(), split.mispredicts());
    }

    #[test]
    fn reset_matches_fresh_predictor() {
        let mut bp = predictor();
        for i in 0..500u64 {
            let pc = 0x100 + (i % 37) * 4;
            let p = bp.predict_and_update(pc, i % 3 == 0);
            let _ = p;
            bp.btb_insert(pc);
        }
        bp.reset();
        let mut fresh = predictor();
        for i in 0..500u64 {
            let pc = 0x100 + (i % 37) * 4;
            assert_eq!(
                bp.predict_and_update(pc, i % 2 == 0),
                fresh.predict_and_update(pc, i % 2 == 0)
            );
            assert_eq!(bp.btb_lookup(pc), fresh.btb_lookup(pc));
        }
    }
}
