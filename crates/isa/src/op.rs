//! Operation classes, functional-unit kinds, execution latencies, and
//! speculation resolution delays.

use std::fmt;

/// The operation class of an instruction.
///
/// Classes determine which functional unit executes the instruction, its
/// execution latency, and its speculation resolution delay (the number of
/// cycles after issue until the instruction can no longer squash younger
/// instructions — used by the speculation shift registers of paper §III-B).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OpClass {
    /// Simple integer ALU operation (add, logic, shift, compare).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Floating-point add/compare/convert.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide / square root.
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional or unconditional branch.
    Branch,
    /// Memory barrier; synchronizes the pipeline at dispatch (paper §III-D).
    MemBarrier,
}

impl OpClass {
    /// All operation classes, for exhaustive iteration in tests and the
    /// energy model.
    pub const ALL: [OpClass; 10] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::MemBarrier,
    ];

    /// Fixed execution latency in cycles, excluding memory access time.
    ///
    /// Loads take `latency()` cycles of address generation plus the cache
    /// access; the paper's minimum 2-cycle load-to-use for L1 hits is modeled
    /// in the memory pipeline, not here.
    #[inline]
    pub fn latency(self) -> u32 {
        match self {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 12,
            OpClass::FpAlu => 2,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 16,
            OpClass::Load => 1,  // address generation; cache adds more
            OpClass::Store => 1, // address generation
            OpClass::Branch => 1,
            OpClass::MemBarrier => 1,
        }
    }

    /// Speculation resolution delay in cycles after issue (paper §III-B).
    ///
    /// This is the bounded, pipeline-determined number of cycles until the
    /// instruction can no longer cause younger instructions to be squashed:
    /// branches resolve at execute; loads and stores resolve once their
    /// address has been generated and checked against the load/store queues
    /// (under the relaxed memory model of §III-D the window does not extend
    /// to the full miss latency); arithmetic never squashes in our ISA.
    #[inline]
    pub fn resolution_delay(self) -> u32 {
        match self {
            OpClass::Branch => 2,
            // Loads resolve once the address/fault check completes; stores
            // once their address scans the load queue (both at execute+1).
            // Under the relaxed model neither extends to the miss latency.
            OpClass::Load => 2,
            OpClass::Store => 2,
            OpClass::IntDiv | OpClass::FpDiv => 2, // divide-by-zero trap point
            _ => 1,
        }
    }

    /// The functional-unit pool that executes this class.
    #[inline]
    pub fn fu_kind(self) -> FuKind {
        match self {
            OpClass::IntAlu | OpClass::Branch | OpClass::MemBarrier => FuKind::IntAlu,
            OpClass::IntMul | OpClass::IntDiv => FuKind::IntMulDiv,
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => FuKind::Fp,
            OpClass::Load | OpClass::Store => FuKind::MemPort,
        }
    }

    /// Whether this class reads or writes memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether the functional unit is pipelined (can accept a new operation
    /// every cycle). Divides are unpipelined, matching typical cores.
    #[inline]
    pub fn pipelined(self) -> bool {
        !matches!(self, OpClass::IntDiv | OpClass::FpDiv)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int_alu",
            OpClass::IntMul => "int_mul",
            OpClass::IntDiv => "int_div",
            OpClass::FpAlu => "fp_alu",
            OpClass::FpMul => "fp_mul",
            OpClass::FpDiv => "fp_div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::MemBarrier => "barrier",
        };
        f.write_str(s)
    }
}

/// A functional-unit pool kind.
///
/// The core has a fixed number of units of each kind; the issue stage
/// enforces the structural limit (paper §II: structural dependences).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FuKind {
    /// Simple integer ALUs; also execute branches and barriers.
    IntAlu,
    /// Integer multiply/divide unit.
    IntMulDiv,
    /// Floating-point units.
    Fp,
    /// Memory address-generation / cache ports.
    MemPort,
}

impl FuKind {
    /// All functional-unit kinds.
    pub const ALL: [FuKind; 4] = [
        FuKind::IntAlu,
        FuKind::IntMulDiv,
        FuKind::Fp,
        FuKind::MemPort,
    ];

    /// Flat index for per-kind arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FuKind::IntAlu => 0,
            FuKind::IntMulDiv => 1,
            FuKind::Fp => 2,
            FuKind::MemPort => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_are_positive() {
        for op in OpClass::ALL {
            assert!(op.latency() >= 1, "{op} must have at least 1 cycle latency");
        }
    }

    #[test]
    fn resolution_delays_are_positive() {
        for op in OpClass::ALL {
            assert!(op.resolution_delay() >= 1);
        }
    }

    #[test]
    fn resolution_delays_fit_the_skip_engine() {
        // Cycle skipping opens a window only after a tick without issue and
        // replays no SSR decay: a speculation shift register armed with at
        // most 2 decays once in the issuing tick and once in the next, so
        // every register is zero by then. A longer delay would need the
        // decay replayed across skipped spans.
        for op in OpClass::ALL {
            assert!(op.resolution_delay() <= 2, "{op}");
        }
    }

    #[test]
    fn divide_latency_dominates() {
        assert!(OpClass::IntDiv.latency() > OpClass::IntMul.latency());
        assert!(OpClass::FpDiv.latency() > OpClass::FpMul.latency());
    }

    #[test]
    fn mem_classification() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::Branch.is_mem());
        assert!(!OpClass::MemBarrier.is_mem());
    }

    #[test]
    fn fu_kind_mapping_is_total() {
        for op in OpClass::ALL {
            let k = op.fu_kind();
            assert!(FuKind::ALL.contains(&k));
            assert!(k.index() < FuKind::ALL.len());
        }
    }

    #[test]
    fn divides_are_unpipelined() {
        assert!(!OpClass::IntDiv.pipelined());
        assert!(!OpClass::FpDiv.pipelined());
        assert!(OpClass::IntAlu.pipelined());
        assert!(OpClass::Load.pipelined());
    }

    #[test]
    fn fu_indices_are_unique() {
        let mut seen = [false; 4];
        for k in FuKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
    }
}
