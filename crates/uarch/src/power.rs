//! Wattch-style activity-based power model.
//!
//! Wattch (Brooks et al., ISCA 2000) estimates per-cycle power from
//! per-unit activity counts and per-access energy, with conditional
//! clocking leaving idle units at a fraction of peak. We follow the same
//! structure at a coarser granularity: each microarchitectural event adds
//! its unit's active power to the cycle total, on top of an always-on
//! clock-tree/leakage base. Per the paper's §3.2, per-cycle current is
//! per-cycle power divided by Vdd, so with Vdd = 1.0 V one watt is one
//! ampere.

/// Per-cycle activity counts, filled in by the pipeline each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleActivity {
    /// Instructions fetched (I-cache + front-end).
    pub fetched: u32,
    /// Fetch-equivalents of wrong-path activity during mispredict
    /// recovery (front end keeps toggling).
    pub wrong_path_fetch: u32,
    /// Instructions dispatched into the window.
    pub dispatched: u32,
    /// Integer ALU ops issued.
    pub int_alu: u32,
    /// Integer multiplies issued.
    pub int_mult: u32,
    /// Integer divides issued.
    pub int_div: u32,
    /// FP adds issued.
    pub fp_alu: u32,
    /// FP multiplies issued.
    pub fp_mult: u32,
    /// FP divides issued.
    pub fp_div: u32,
    /// Loads issued (AGU + L1D access).
    pub loads: u32,
    /// Stores issued.
    pub stores: u32,
    /// No-ops issued (dI/dt control injects these).
    pub nops: u32,
    /// L2 accesses initiated.
    pub l2_accesses: u32,
    /// Main-memory accesses initiated.
    pub mem_accesses: u32,
    /// Branch predictor lookups/updates.
    pub branches: u32,
    /// Instructions committed.
    pub committed: u32,
    /// Occupied instruction-window entries this cycle.
    pub window_occupancy: u32,
    /// Occupied LSQ entries this cycle.
    pub lsq_occupancy: u32,
}

/// Unit power weights in watts contributed per event (or per occupied
/// entry) during one cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Always-on clock tree + leakage.
    pub base: f64,
    /// Per fetched instruction (I-cache, TLB, front-end latches).
    pub fetch: f64,
    /// Per dispatched instruction (rename + window write).
    pub dispatch: f64,
    /// Per integer ALU issue.
    pub int_alu: f64,
    /// Per integer multiply issue.
    pub int_mult: f64,
    /// Per integer divide issue.
    pub int_div: f64,
    /// Per FP add issue.
    pub fp_alu: f64,
    /// Per FP multiply issue.
    pub fp_mult: f64,
    /// Per FP divide issue.
    pub fp_div: f64,
    /// Per load issue (AGU + L1D).
    pub load: f64,
    /// Per store issue.
    pub store: f64,
    /// Per injected no-op issue.
    pub nop: f64,
    /// Per L2 access.
    pub l2_access: f64,
    /// Per main-memory access (bus + DRAM interface, on-die share).
    pub mem_access: f64,
    /// Per branch (predictor + BTB).
    pub branch: f64,
    /// Per committed instruction (regfile write + retire).
    pub commit: f64,
    /// Per occupied window entry (CAM wakeup/select).
    pub window_entry: f64,
    /// Per occupied LSQ entry.
    pub lsq_entry: f64,
    /// Relative standard deviation of data-dependent switching activity,
    /// applied to the dynamic (non-base) power each cycle. Real datapaths
    /// draw different power for the same operation depending on operand
    /// bit patterns; Wattch models this with activity factors.
    pub data_jitter: f64,
}

impl PowerModel {
    /// Weights tuned for the paper's 3 GHz Alpha-class core: idle cycles
    /// draw ~13 W, typical activity ~35–50 W, full-throttle bursts near
    /// 80 W — matching the stressor range used for target-impedance
    /// calibration.
    #[must_use]
    pub fn table1() -> Self {
        PowerModel {
            base: 10.0,
            fetch: 2.0,
            dispatch: 1.0,
            int_alu: 4.5,
            int_mult: 7.0,
            int_div: 7.0,
            fp_alu: 6.0,
            fp_mult: 9.0,
            fp_div: 9.0,
            load: 5.5,
            store: 4.5,
            nop: 3.5,
            l2_access: 8.0,
            mem_access: 15.0,
            branch: 1.4,
            commit: 1.5,
            window_entry: 0.04,
            lsq_entry: 0.02,
            data_jitter: 0.15,
        }
    }

    /// Power (watts) drawn by a cycle with no events: the always-on
    /// clock-tree/leakage base plus the occupancy (CAM) power of held
    /// window and LSQ entries. Exactly the occupancy terms of
    /// [`PowerModel::cycle_power`], in the same evaluation order, so
    /// `cycle_power(a) - idle_power(..)` isolates the event-driven share
    /// bit-exactly.
    #[inline]
    #[must_use]
    pub fn idle_power(&self, window_occupancy: u32, lsq_occupancy: u32) -> f64 {
        self.base
            + self.window_entry * f64::from(window_occupancy)
            + self.lsq_entry * f64::from(lsq_occupancy)
    }

    /// Power (watts) drawn during a cycle with the given activity.
    #[inline]
    #[must_use]
    pub fn cycle_power(&self, a: &CycleActivity) -> f64 {
        self.base
            + self.fetch * f64::from(a.fetched)
            + self.fetch * 0.5 * f64::from(a.wrong_path_fetch)
            + self.dispatch * f64::from(a.dispatched)
            + self.int_alu * f64::from(a.int_alu)
            + self.int_mult * f64::from(a.int_mult)
            + self.int_div * f64::from(a.int_div)
            + self.fp_alu * f64::from(a.fp_alu)
            + self.fp_mult * f64::from(a.fp_mult)
            + self.fp_div * f64::from(a.fp_div)
            + self.load * f64::from(a.loads)
            + self.store * f64::from(a.stores)
            + self.nop * f64::from(a.nops)
            + self.l2_access * f64::from(a.l2_accesses)
            + self.mem_access * f64::from(a.mem_accesses)
            + self.branch * f64::from(a.branches)
            + self.commit * f64::from(a.committed)
            + self.window_entry * f64::from(a.window_occupancy)
            + self.lsq_entry * f64::from(a.lsq_occupancy)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cycle_is_base_power() {
        let m = PowerModel::table1();
        let a = CycleActivity::default();
        assert_eq!(m.cycle_power(&a), m.base);
    }

    #[test]
    fn busy_cycle_near_peak() {
        // 4-wide fetch/dispatch/commit, all FUs firing, full window.
        let m = PowerModel::table1();
        let a = CycleActivity {
            fetched: 4,
            dispatched: 4,
            int_alu: 2,
            fp_mult: 1,
            fp_alu: 1,
            loads: 2,
            l2_accesses: 1,
            branches: 1,
            committed: 4,
            window_occupancy: 80,
            lsq_occupancy: 40,
            ..CycleActivity::default()
        };
        let p = m.cycle_power(&a);
        assert!((60.0..95.0).contains(&p), "peak-ish power {p}");
    }

    #[test]
    fn stalled_cycle_is_low_power() {
        let m = PowerModel::table1();
        let a = CycleActivity {
            window_occupancy: 80,
            lsq_occupancy: 40,
            ..CycleActivity::default()
        };
        let p = m.cycle_power(&a);
        assert!((10.0..20.0).contains(&p), "stall power {p}");
    }

    #[test]
    fn power_is_monotone_in_activity() {
        let m = PowerModel::table1();
        let mut a = CycleActivity::default();
        let mut last = m.cycle_power(&a);
        for f in 1..=4 {
            a.fetched = f;
            let p = m.cycle_power(&a);
            assert!(p > last);
            last = p;
        }
    }

    #[test]
    fn idle_power_matches_occupancy_only_cycle() {
        let m = PowerModel::table1();
        let a = CycleActivity {
            window_occupancy: 80,
            lsq_occupancy: 40,
            ..CycleActivity::default()
        };
        // Bitwise equality matters: the pipeline subtracts idle_power
        // from cycle_power to isolate event power.
        assert_eq!(m.idle_power(80, 40), m.cycle_power(&a));
        assert_eq!(m.idle_power(0, 0), m.base);
    }

    #[test]
    fn memory_access_is_expensive() {
        let m = PowerModel::table1();
        assert!(m.mem_access > m.l2_access);
        assert!(m.l2_access > m.load);
    }
}
