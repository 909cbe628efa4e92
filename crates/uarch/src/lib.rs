//! Microarchitectural building blocks for the `shelfsim` core model.
//!
//! Everything the paper's hybrid instruction window is assembled from lives
//! here, decoupled from the pipeline so each mechanism can be unit- and
//! property-tested in isolation:
//!
//! * [`OrderedQueue`] — bounded circular buffer with monotonic indices; the
//!   substrate for the ROB, the shelf, and the load/store queues.
//! * [`FreeList`] — physical-register and tag-extension free lists
//!   (paper §III-C, Figure 7).
//! * [`RenameTable`] — the RAT mapping each architectural register to a
//!   *(physical register index, tag)* pair (Figure 8).
//! * [`Scoreboard`] — per-tag readiness (wakeup for the IQ, the "ready
//!   bitvector / conventional scoreboard" for the shelf head).
//! * [`IssueTracker`] — the per-thread issue-tracking bitvector with head
//!   pointer that lets the shelf issue in program order (Figure 4).
//! * [`SsrPair`] — the two speculation shift registers per thread
//!   (Figure 5).
//! * [`BranchPredictor`] — tournament (bimodal + gshare) + BTB + return
//!   address stack.
//! * [`StoreSets`] — the store-set memory dependence predictor (§III-D).
//! * [`Icount`] — the ICOUNT SMT fetch policy.
//! * [`ReadyCycleTable`] / [`ParentLoadsTable`] — the practical steering
//!   hardware (§IV-B, Figure 9).

pub mod bpred;
pub mod freelist;
pub mod icount;
pub mod issue_track;
pub mod plt;
pub mod queue;
pub mod rct;
pub mod rename;
pub mod scoreboard;
pub mod ssr;
pub mod store_sets;

pub use bpred::{BranchPredictor, BranchPredictorConfig, Prediction, PredictorKind};
pub use freelist::FreeList;
pub use icount::Icount;
pub use issue_track::IssueTracker;
pub use plt::ParentLoadsTable;
pub use queue::OrderedQueue;
pub use rct::ReadyCycleTable;
pub use rename::{Mapping, PhysReg, RenameTable, Tag};
pub use scoreboard::Scoreboard;
pub use ssr::SsrPair;
pub use store_sets::StoreSets;
