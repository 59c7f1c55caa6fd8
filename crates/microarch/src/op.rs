//! Micro-operations and the instruction-stream abstraction.

use serde::{Deserialize, Serialize};

/// The class of a micro-operation, determining which functional unit
/// executes it and what its latency is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Fixed-point ALU operation (FXU, 1 cycle).
    IntAlu,
    /// Floating-point operation (FPU, pipelined multi-cycle).
    FpAlu,
    /// Memory load (LSU; latency from the cache hierarchy).
    Load {
        /// Byte address accessed.
        addr: u64,
    },
    /// Memory store (LSU; retires without stalling consumers).
    Store {
        /// Byte address accessed.
        addr: u64,
    },
    /// Conditional branch (BRU; may trigger a pipeline refill).
    Branch {
        /// Static address of the branch, used to index predictor tables.
        pc: u64,
        /// Actual outcome.
        taken: bool,
    },
}

/// One micro-operation of a synthetic instruction stream.
///
/// `dep` is the distance (in dynamically preceding micro-ops) to the
/// producer of this op's source operand, if any; it is how workload
/// generators express ILP. A chain of `dep = Some(1)` loads is a
/// pointer-chase with no memory-level parallelism; independent ops
/// (`dep = None`) saturate the dispatch width.
///
/// `code_addr` is the address of the instruction itself, used for L1I
/// modelling (one access per cache block of straight-line code).
///
/// # Examples
///
/// ```
/// use gpm_microarch::MicroOp;
///
/// let op = MicroOp::load(0x1000, Some(1)).at_code(0x400);
/// assert!(op.is_memory());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicroOp {
    /// Operation class.
    pub kind: OpKind,
    /// Distance back to the producing op, or `None` when independent.
    pub dep: Option<u32>,
    /// Address of the instruction word (for I-cache modelling).
    pub code_addr: u64,
}

impl MicroOp {
    /// Creates a fixed-point ALU op.
    #[must_use]
    pub const fn int_alu(dep: Option<u32>) -> Self {
        Self {
            kind: OpKind::IntAlu,
            dep,
            code_addr: 0,
        }
    }

    /// Creates a floating-point op.
    #[must_use]
    pub const fn fp_alu(dep: Option<u32>) -> Self {
        Self {
            kind: OpKind::FpAlu,
            dep,
            code_addr: 0,
        }
    }

    /// Creates a load from `addr`.
    #[must_use]
    pub const fn load(addr: u64, dep: Option<u32>) -> Self {
        Self {
            kind: OpKind::Load { addr },
            dep,
            code_addr: 0,
        }
    }

    /// Creates a store to `addr`.
    #[must_use]
    pub const fn store(addr: u64, dep: Option<u32>) -> Self {
        Self {
            kind: OpKind::Store { addr },
            dep,
            code_addr: 0,
        }
    }

    /// Creates a conditional branch at `pc` with the given outcome.
    #[must_use]
    pub const fn branch(pc: u64, taken: bool) -> Self {
        Self {
            kind: OpKind::Branch { pc, taken },
            dep: None,
            code_addr: 0,
        }
    }

    /// Sets the instruction's own code address (builder-style).
    #[must_use]
    pub const fn at_code(mut self, code_addr: u64) -> Self {
        self.code_addr = code_addr;
        self
    }

    /// Returns `true` for loads and stores.
    #[must_use]
    pub const fn is_memory(&self) -> bool {
        matches!(self.kind, OpKind::Load { .. } | OpKind::Store { .. })
    }

    /// Returns `true` for branches.
    #[must_use]
    pub const fn is_branch(&self) -> bool {
        matches!(self.kind, OpKind::Branch { .. })
    }
}

/// A source of micro-operations driven by the core model.
///
/// Implementations are expected to be infinite (looping) streams;
/// finite-length semantics (benchmark completion) are handled one level up
/// by the trace captures, which know each benchmark's total instruction
/// count.
pub trait InstructionSource {
    /// Produces the next micro-op in program order.
    fn next_op(&mut self) -> MicroOp;

    /// Fills `buf` with the next micro-ops in program order and returns how
    /// many were written (always starting at `buf[0]`).
    ///
    /// This is the batched delivery path: the core pulls ops in blocks so a
    /// boxed/dynamic source pays one virtual call per block rather than one
    /// per op. The contract for a non-empty `buf` is to deliver between 1
    /// and `buf.len()` ops — delivering fewer than requested is allowed
    /// (e.g. a source that produces ops in fixed-size chunks), delivering 0
    /// is a violation and the core panics on it.
    ///
    /// Batching must not change the op sequence: `fill_ops` followed by
    /// `next_op` yields exactly the ops `next_op` alone would have yielded.
    /// The default implementation guarantees this by delegating to
    /// [`next_op`](Self::next_op) for every slot.
    fn fill_ops(&mut self, buf: &mut [MicroOp]) -> usize {
        for slot in buf.iter_mut() {
            *slot = self.next_op();
        }
        buf.len()
    }
}

impl<T: InstructionSource + ?Sized> InstructionSource for &mut T {
    fn next_op(&mut self) -> MicroOp {
        (**self).next_op()
    }

    fn fill_ops(&mut self, buf: &mut [MicroOp]) -> usize {
        (**self).fill_ops(buf)
    }
}

impl<T: InstructionSource + ?Sized> InstructionSource for Box<T> {
    fn next_op(&mut self) -> MicroOp {
        (**self).next_op()
    }

    fn fill_ops(&mut self, buf: &mut [MicroOp]) -> usize {
        (**self).fill_ops(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(MicroOp::int_alu(None).kind, OpKind::IntAlu);
        assert_eq!(MicroOp::fp_alu(Some(2)).dep, Some(2));
        assert!(MicroOp::load(8, None).is_memory());
        assert!(MicroOp::store(8, None).is_memory());
        assert!(MicroOp::branch(0x10, true).is_branch());
        assert!(!MicroOp::int_alu(None).is_memory());
    }

    #[test]
    fn at_code_sets_address() {
        let op = MicroOp::int_alu(None).at_code(0xdead);
        assert_eq!(op.code_addr, 0xdead);
    }

    #[test]
    fn source_via_mut_ref_and_box() {
        struct S(u64);
        impl InstructionSource for S {
            fn next_op(&mut self) -> MicroOp {
                self.0 += 1;
                MicroOp::int_alu(None)
            }
        }
        let mut s = S(0);
        let _ = InstructionSource::next_op(&mut (&mut s));
        let mut b: Box<dyn InstructionSource> = Box::new(S(0));
        let _ = b.next_op();
        assert_eq!(s.0, 1);
    }

    #[test]
    fn default_fill_ops_matches_next_op() {
        struct Counting(u64);
        impl InstructionSource for Counting {
            fn next_op(&mut self) -> MicroOp {
                self.0 += 1;
                MicroOp::load(self.0 * 8, None)
            }
        }
        let mut by_batch = Counting(0);
        let mut buf = [MicroOp::int_alu(None); 7];
        assert_eq!(by_batch.fill_ops(&mut buf), 7);
        let mut one_by_one = Counting(0);
        for op in buf {
            assert_eq!(op, one_by_one.next_op());
        }
        // Boxed dynamic sources forward the batched path.
        let mut boxed: Box<dyn InstructionSource> = Box::new(Counting(0));
        assert_eq!(boxed.fill_ops(&mut buf), 7);
        assert_eq!(buf[0], MicroOp::load(8, None));
    }
}
