//! Property tests for the runner's block-claiming core: under
//! adversarial cost skew (random per-point busy-loops driven by the
//! cost hint), sweeps in which idle workers claim from the back of
//! other workers' blocks must stay bit-identical to the one-worker run
//! for any thread count and ragged grid size. Scheduling decides
//! *which worker* executes a point, never *what* the point computes —
//! see DESIGN.md §16 for the determinism contract.

use didt_bench::{CostClass, ExperimentRunner};
use proptest::prelude::*;

/// Deterministic "compute" whose wall time scales with the cost hint:
/// a busy-loop over a splitmix-style mixer so the optimizer cannot
/// elide it and so the result depends only on `(index, point)`.
fn spin_job(index: usize, cost: u64) -> u64 {
    let mut acc = (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cost;
    // Skewed points spin proportionally longer (bounded: cost < 2000).
    for i in 0..(cost * 17 + 3) {
        acc ^= acc >> 30;
        acc = acc.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        acc = acc.wrapping_add(i);
    }
    acc
}

fn hint(p: &u64) -> u64 {
    *p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Many workers ≡ one for adversarial cost vectors: ragged
    /// lengths, heavy skew (costs spanning 0..2000), 1–16 workers on
    /// whatever cores the host has (oversubscription included).
    #[test]
    fn stolen_sweeps_match_serial_under_cost_skew(
        costs in prop::collection::vec(0u64..2000, 1..120),
        threads in 1usize..=16,
    ) {
        let serial = ExperimentRunner::serial()
            .run_costed(&costs, CostClass::Hinted(hint), |i, p| spin_job(i, *p));
        let stolen = ExperimentRunner::with_threads(threads)
            .run_costed(&costs, CostClass::Hinted(hint), |i, p| spin_job(i, *p));
        prop_assert_eq!(&serial, &stolen);
    }

    /// The cost hint cuts the blocks only: a deliberately *wrong* hint
    /// (inverse of the true cost) still yields bit-identical results.
    #[test]
    fn misleading_hints_change_schedule_not_results(
        costs in prop::collection::vec(1u64..500, 1..80),
        threads in 2usize..=12,
    ) {
        fn inverse_hint(p: &u64) -> u64 {
            2000 / *p
        }
        let serial = ExperimentRunner::serial()
            .run_costed(&costs, CostClass::Uniform, |i, p| spin_job(i, *p));
        let stolen = ExperimentRunner::with_threads(threads)
            .run_costed(&costs, CostClass::Hinted(inverse_hint), |i, p| spin_job(i, *p));
        prop_assert_eq!(&serial, &stolen);
    }
}
