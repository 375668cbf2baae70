//! Micro-operation types flowing through the simulated pipeline.

/// Operation classes, mirroring SimpleScalar's functional-unit classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU operation (1 cycle).
    IntAlu,
    /// Integer multiply (3 cycles).
    IntMult,
    /// Integer divide (20 cycles, unpipelined).
    IntDiv,
    /// Floating-point add/sub/compare (2 cycles).
    FpAlu,
    /// Floating-point multiply (4 cycles).
    FpMult,
    /// Floating-point divide (12 cycles, unpipelined).
    FpDiv,
    /// Memory load (latency from the cache hierarchy).
    Load,
    /// Memory store (executes into the LSQ).
    Store,
    /// Conditional branch (resolved by an integer ALU).
    Branch,
    /// No-op, as injected by dI/dt control to raise current draw.
    Nop,
}

impl OpClass {
    /// Execution latency in cycles, excluding memory-hierarchy time.
    #[must_use]
    pub fn base_latency(self) -> u32 {
        match self {
            OpClass::IntAlu | OpClass::Branch | OpClass::Nop => 1,
            OpClass::IntMult => 3,
            OpClass::IntDiv => 20,
            OpClass::FpAlu => 2,
            OpClass::FpMult => 4,
            OpClass::FpDiv => 12,
            OpClass::Load => 1,  // plus cache latency, added at issue
            OpClass::Store => 1, // address generation only
        }
    }

    /// `true` for loads and stores.
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// One synthetic instruction, as emitted by a workload generator.
///
/// Dependencies are expressed as *distances*: `dep(k)` means "my source
/// operand is produced by the instruction `k` positions earlier in the
/// dynamic stream" — the standard way synthetic-trace generators encode
/// dataflow without register names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    /// Operation class.
    pub op: OpClass,
    /// Distance to the first source producer (0 = none).
    pub dep1: u32,
    /// Distance to the second source producer (0 = none).
    pub dep2: u32,
    /// Memory address, meaningful for loads/stores.
    pub addr: u64,
    /// Actual branch direction, meaningful for branches.
    pub taken: bool,
    /// Static branch-site identifier (PC proxy), meaningful for branches.
    pub branch_site: u32,
    /// Instruction PC proxy for I-cache simulation.
    pub pc: u64,
}

impl MicroOp {
    /// A no-op micro-op (used for dI/dt no-op injection).
    #[must_use]
    pub fn nop() -> Self {
        MicroOp {
            op: OpClass::Nop,
            dep1: 0,
            dep2: 0,
            addr: 0,
            taken: false,
            branch_site: 0,
            pc: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_ordering() {
        assert!(OpClass::IntDiv.base_latency() > OpClass::IntMult.base_latency());
        assert!(OpClass::FpDiv.base_latency() > OpClass::FpMult.base_latency());
        assert_eq!(OpClass::IntAlu.base_latency(), 1);
    }

    #[test]
    fn memory_classification() {
        assert!(OpClass::Load.is_memory());
        assert!(OpClass::Store.is_memory());
        assert!(!OpClass::Branch.is_memory());
    }

    #[test]
    fn nop_has_no_dependencies() {
        let n = MicroOp::nop();
        assert_eq!(n.op, OpClass::Nop);
        assert_eq!(n.dep1, 0);
        assert_eq!(n.dep2, 0);
    }
}
