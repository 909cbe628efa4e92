//! # shelfsim
//!
//! A cycle-level simultaneous-multithreading (SMT) out-of-order core
//! simulator with **hybrid shelf dispatch**, reproducing:
//!
//! > Faissal M. Sleiman and Thomas F. Wenisch. *Efficiently Scaling
//! > Out-of-Order Cores for Simultaneous Multithreading.* ISCA 2016.
//!
//! The paper's observation: in an SMT core, thread interleaving spreads
//! dependent instructions apart, so **more than half** of instructions in a
//! 4-thread window issue *in program order* after all false dependences
//! have resolved ("in-sequence"). Such instructions gain nothing from the
//! expensive out-of-order machinery they occupy. The proposed design adds a
//! per-thread FIFO issue queue — the **shelf** — and steers predicted
//! in-sequence instructions to it at *instruction granularity*; shelf
//! instructions allocate no ROB, IQ, LSQ, or physical-register resources,
//! effectively doubling the instruction window for a ~3% core-area cost.
//!
//! This crate re-exports the whole workspace:
//!
//! * [`workload`] — 28 synthetic SPEC CPU2006-analogue benchmarks and
//!   balanced-random SMT mixes;
//! * [`mem`] — the L1I/L1D/L2/DRAM hierarchy with MSHRs;
//! * [`uarch`] — the microarchitectural building blocks (ROB, IQ, shelf,
//!   rename with the decoupled tag space, issue tracking, SSRs, store sets,
//!   branch prediction, ICOUNT, steering tables);
//! * [`core`] — the cycle-level pipeline and the [`Simulation`] driver;
//! * [`energy`] — the McPAT-style energy/area model;
//! * [`stats`] — STP, weighted CDFs, and aggregation helpers;
//! * [`analyze`] — the static-analysis framework: CFG + worklist dataflow
//!   passes, kernel/config lints, static IPC upper bounds, resource-adequacy
//!   proofs, and the campaign [`preflight`] bundle (the feature-gated
//!   dynamic invariant sanitizer rides in `--features sanitize`);
//! * [`campaign`] — the fault-tolerant sweep runner (per-run isolation,
//!   forward-progress watchdog, retry escalation, resumable journals,
//!   deterministic fault injection) scaled out with work-stealing worker
//!   deques, per-worker journal shards merged on read, a config-hash
//!   result cache, and a Pareto-frontier report (STP vs energy-delay vs
//!   area);
//! * [`trace`] — the bounded observability layer (instruction lifecycle
//!   ring, occupancy sampling, per-thread stall attribution, JSONL and
//!   Chrome trace-event exporters);
//! * [`validate`] — the differential validation harness: lockstep
//!   comparison against an in-order functional reference, structure-size
//!   sensitivity sweeps, divergence shrinking over generated programs, and
//!   (behind `--features chaos`) mutation testing of the validator itself.
//!
//! # Quickstart
//!
//! ```
//! use shelfsim::{CoreConfig, Simulation, SteerPolicy};
//!
//! // A 4-thread SMT core with a 64-entry ROB plus a 64-entry shelf,
//! // steering with the practical RCT/PLT hardware of paper §IV-B.
//! let cfg = CoreConfig::base64_shelf64(4, SteerPolicy::Practical, true);
//! let mut sim = Simulation::from_names(cfg, &["gcc", "mcf", "hmmer", "lbm"], 42).unwrap();
//! let result = sim.run(2_000, 10_000);
//! assert!(result.counters.issued_shelf > 0);
//! println!("IPC: {:.2}", result.ipc());
//! ```

pub use shelfsim_analyze as analyze;
pub use shelfsim_campaign as campaign;
pub use shelfsim_core as core;
pub use shelfsim_energy as energy;
pub use shelfsim_isa as isa;
pub use shelfsim_mem as mem;
pub use shelfsim_stats as stats;
pub use shelfsim_trace as trace;
pub use shelfsim_uarch as uarch;
pub use shelfsim_validate as validate;
pub use shelfsim_workload as workload;

pub use shelfsim_analyze::{
    aggregate_bound, apply_override, check_adequacy, ipc_bound, preflight, Diagnostic,
    IpcBoundReport, Report, Severity,
};
pub use shelfsim_campaign::{
    pareto_report, run_campaign, shard_plan, warmups_needed, CampaignReport, CampaignSpec,
    FaultKind, FaultMix, FaultPlan, ParetoReport, ResultCache, RunSpec, ShardedJournal, SweepSpec,
};
pub use shelfsim_core::{
    Completion, Core, CoreConfig, Counters, MemoryModel, RunMeta, RunResult, SimError, Simulation,
    SteerPolicy, ThreadResult, Watchdog,
};
pub use shelfsim_energy::{EnergyModel, EnergyReport};
pub use shelfsim_stats::{geomean, stp, WeightedCdf};
pub use shelfsim_trace::{Lifecycle, OccupancySample, StallCause, Tracer};
pub use shelfsim_workload::{balanced_random_mixes, suite, Mix};
