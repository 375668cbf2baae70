//! Closed-loop dI/dt control (paper §5.3).
//!
//! A [`DidtController`] watches each cycle's sense data and decides
//! whether the pipeline should run normally, stall issue (voltage
//! heading low) or inject no-ops (voltage heading high). The
//! [`ClosedLoop`] harness wires a controller between the simulated
//! processor and the PDN and measures what the paper's Figure 15 and
//! Table 2 report: slowdown, remaining voltage emergencies, control
//! engagement and false positives.

mod closed_loop;
mod controllers;

pub use closed_loop::{
    ClosedLoop, ClosedLoopConfig, ClosedLoopResult, RecordedRun, Replay, SimScratch,
    DEADLINE_CHECK_INTERVAL, REPLAY_BLOCK,
};
pub use controllers::{NoControl, PipelineDamping, ThresholdController};

use crate::monitor::CycleSense;
use didt_uarch::ControlAction;

/// A microarchitectural dI/dt controller.
pub trait DidtController {
    /// Decide the action for the next cycle from the latest sense data.
    fn decide(&mut self, sense: CycleSense) -> ControlAction;

    /// Decide a run of consecutive cycles at once: `actions[n]` is what
    /// [`Self::decide`] would return for `senses[n]` after being handed
    /// `senses[..n]`. Open-loop replay knows every sense before it asks
    /// (the recorded current fixes the voltage), so it hands over a
    /// block of [`REPLAY_BLOCK`] cycles; the live loop cannot, since
    /// there the next current depends on the last action. The default
    /// is the per-cycle `decide` loop.
    ///
    /// # Panics
    ///
    /// Panics when the two slices differ in length.
    fn decide_block(&mut self, senses: &[CycleSense], actions: &mut [ControlAction]) {
        assert_eq!(senses.len(), actions.len(), "one action per sense");
        for (&sense, action) in senses.iter().zip(actions) {
            *action = self.decide(sense);
        }
    }

    /// Scheme name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    #[test]
    fn trait_is_object_safe() {
        fn _takes(_: &dyn super::DidtController) {}
    }
}
