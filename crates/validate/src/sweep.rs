//! Structure-size sensitivity sweeps.
//!
//! A structure size (ROB, IQ, LQ, SQ, shelf depth — and, because the PRF is
//! derived as `threads × NUM_ARCH_REGS + rob_entries`, the PRF too) must
//! change *when* instructions retire, never *what* retires. The sweep
//! perturbs one size at a time from a base design point, runs the lockstep
//! harness at every point, and asserts the cross-run invariants: every
//! point validates clean against the functional reference, and the
//! validated commit-stream fingerprints (sequence numbers, PCs, memory
//! addresses, branch outcomes, synthetic values) are bit-identical across
//! all points. Per-run invariants (stall-attribution sums, event
//! conservation) are asserted inside each lockstep run.

use crate::lockstep::{run_lockstep, LockstepConfig, Verdict};
use shelfsim_core::CoreConfig;
use shelfsim_workload::program::Program;
use std::sync::Arc;

/// Size delta applied to each queue structure.
const QUEUE_DELTA: usize = 8;
/// Size delta applied to the per-thread shelf.
const SHELF_DELTA: usize = 16;

/// One perturbation point of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Point label (`base`, `rob+8`, ...).
    pub label: String,
    /// Lockstep verdict at this point.
    pub verdict: Verdict,
}

/// Outcome of a full sweep from one base configuration.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Every point run, base first.
    pub points: Vec<SweepPoint>,
    /// First cross-point violation, if any (all-clean points whose commit
    /// streams nevertheless differ).
    pub violation: Option<String>,
}

impl SweepReport {
    /// True when every point validated clean *and* all streams matched.
    pub fn is_clean(&self) -> bool {
        self.violation.is_none() && self.points.iter().all(|p| p.verdict.is_clean())
    }
}

/// The perturbation points for `base`: one structure grown at a time.
/// Growing the ROB also grows the derived PRF, which is how the PRF axis of
/// the ISSUE's ROB/IQ/LSQ/PRF/shelf list is covered.
fn perturbations(base: &CoreConfig) -> Vec<(String, CoreConfig)> {
    let mut points = vec![("base".to_owned(), base.clone())];
    let mut push = |label: String, f: &dyn Fn(&mut CoreConfig)| {
        let mut cfg = base.clone();
        f(&mut cfg);
        points.push((label, cfg));
    };
    push(format!("rob+{QUEUE_DELTA}"), &|c| {
        c.rob_entries += QUEUE_DELTA;
    });
    push(format!("iq+{QUEUE_DELTA}"), &|c| {
        c.iq_entries += QUEUE_DELTA;
    });
    push(format!("lq+{QUEUE_DELTA}"), &|c| {
        c.lq_entries += QUEUE_DELTA;
    });
    push(format!("sq+{QUEUE_DELTA}"), &|c| {
        c.sq_entries += QUEUE_DELTA;
    });
    if base.shelf_entries > 0 {
        push(format!("shelf+{SHELF_DELTA}"), &|c| {
            c.shelf_entries += SHELF_DELTA;
        });
    }
    points
}

/// Runs the sweep: lockstep-validates `programs` at the base point and at
/// every single-structure perturbation, then cross-checks that all clean
/// points produced identical validated commit streams.
pub fn run_sweep(base: &CoreConfig, programs: &[Program], lcfg: &LockstepConfig) -> SweepReport {
    let mut points = Vec::new();
    let mut base_stats: Option<(String, Vec<u64>, Vec<u64>)> = None;
    let mut violation = None;
    // One copy of each program, shared by every point's lockstep run.
    let programs: Vec<Arc<Program>> = programs.iter().cloned().map(Arc::new).collect();

    for (label, cfg) in perturbations(base) {
        let verdict = run_lockstep(&cfg, programs.iter().cloned(), lcfg);
        if let Verdict::Clean(stats) = &verdict {
            match &base_stats {
                None => {
                    base_stats = Some((
                        label.clone(),
                        stats.committed.clone(),
                        stats.fingerprints.clone(),
                    ));
                }
                Some((base_label, base_committed, base_fp)) => {
                    if violation.is_none() && stats.committed != *base_committed {
                        violation = Some(format!(
                            "`{label}` validated {:?} commits per thread but `{base_label}` validated {:?}",
                            stats.committed, base_committed
                        ));
                    }
                    if violation.is_none() && stats.fingerprints != *base_fp {
                        let t = stats
                            .fingerprints
                            .iter()
                            .zip(base_fp)
                            .position(|(a, b)| a != b)
                            .unwrap_or(0);
                        violation = Some(format!(
                            "`{label}` thread {t} commit-stream fingerprint {:#x} != `{base_label}` {:#x}",
                            stats.fingerprints[t], base_fp[t]
                        ));
                    }
                }
            }
        }
        points.push(SweepPoint { label, verdict });
    }

    SweepReport { points, violation }
}
