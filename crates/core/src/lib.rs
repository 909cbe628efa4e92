//! `shelfsim-core` — a cycle-level SMT out-of-order core with hybrid shelf
//! dispatch, reproducing Sleiman & Wenisch, "Efficiently Scaling
//! Out-of-Order Cores for Simultaneous Multithreading" (ISCA 2016).
//!
//! The crate provides:
//!
//! * [`CoreConfig`] — the design points of paper Table I (`base64`,
//!   `base128`, `base64_shelf64`) plus the microarchitecture-assumption and
//!   ablation flags;
//! * [`Core`] — the pipeline itself (see [`pipeline`] for the mechanism
//!   inventory);
//! * [`Simulation`] — a driver that builds workloads, warms structures, and
//!   measures CPI/STP inputs, classification fractions, and energy events;
//! * steering policies ([`SteerPolicy`]) including the practical RCT/PLT
//!   hardware and the greedy oracle of §IV.
//!
//! # Example
//!
//! ```
//! use shelfsim_core::{CoreConfig, Simulation, SteerPolicy};
//!
//! let cfg = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true);
//! let mut sim = Simulation::from_names(cfg, &["gcc", "mcf"], 1).unwrap();
//! let result = sim.run(500, 2_000);
//! assert!(result.counters.committed > 0);
//! ```

pub mod classify;
pub mod config;
pub mod counters;
pub mod inst;
pub mod pipeline;
pub mod sim;
pub mod skip;
pub mod steer;
pub mod warm;

pub use classify::Classifier;
pub use config::{CoreConfig, FetchPolicy, MemoryModel, SteerPolicy};
pub use counters::{Counters, StallCounters};
pub use inst::{InstId, Slab, Slot, Stage, Steer};
#[cfg(feature = "chaos")]
pub use pipeline::{ChaosKind, ChaosPlan};
pub use pipeline::{CommitEvent, CommitRecord, Core, ThreadOccupancy};
pub use sim::{
    thread_program_seed, Completion, DeadlockReport, RunMeta, RunResult, SimError, Simulation,
    ThreadResult, UnknownBenchmark, Watchdog,
};
pub use skip::{SkipCause, SkipStats, SKIP_CAUSES};
pub use steer::{OracleSteer, PracticalSteer};
pub use warm::{WarmKey, WarmState};
// Re-export the observability types so downstream users of the core don't
// need a separate `shelfsim-trace` dependency to consume traces.
pub use shelfsim_trace::{
    EndKind, Lifecycle, OccupancySample, QueueKind, StallCause, Tracer, STALL_CAUSES,
};
