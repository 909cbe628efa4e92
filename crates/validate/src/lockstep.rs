//! Lockstep differential execution.
//!
//! The device under test is the full OOO shelf core; the reference is the
//! trivially-correct in-order functional model the workload crate already
//! provides: a [`TraceSource`] walking the same [`Program`] with the same
//! seed emits, by construction, the exact architectural instruction stream
//! the core must retire. The harness ticks the core, drains its
//! commit-observer events, and compares each retired instruction — sequence
//! number, PC, operation, registers, memory address, branch outcome, and
//! the synthetic writeback / store values of [`crate::value`] — against the
//! reference stream in lockstep. The first mismatch is localized to
//! (thread, commit index, field, expected vs got) and decorated with a
//! lifecycle-trace window dump around the divergent instruction.

use crate::value::{ArchState, InstEffect};
use shelfsim_core::{CommitEvent, Core, CoreConfig};
use shelfsim_workload::program::Program;
use shelfsim_workload::TraceSource;
use std::sync::Arc;

/// Occupancy-sampling period for the harness tracer (samples are retained
/// only so the divergence dump has context; any fixed period works).
const TRACE_SAMPLE_EVERY: u64 = 64;

/// FNV-1a offset basis / prime (the workspace's standard stable hash).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Tunables of one lockstep run.
#[derive(Clone, Copy, Debug)]
pub struct LockstepConfig {
    /// Per-thread commit target: the run validates this many architectural
    /// commits on every thread, then stops.
    pub commits_per_thread: u64,
    /// Cycle budget; expiring before the target is an invariant violation
    /// (`stuck`), not a silent pass.
    pub max_cycles: u64,
    /// Functional warm-up instructions per thread (trains predictors and
    /// caches; shifts the validated window but not the stream content).
    pub warmup_insts: u64,
    /// Lifecycle-trace retention window (instructions) for divergence dumps.
    pub trace_window: usize,
    /// Sequence-number radius of the divergence trace dump.
    pub trace_radius: u64,
    /// Whether the core may fast-forward provably idle spans
    /// ([`Core::set_cycle_skipping`]). Results are bit-identical either
    /// way; exposing the toggle lets the validation matrix prove exactly
    /// that.
    pub cycle_skipping: bool,
    /// Seeded semantic mutation to arm in the core (mutation testing of
    /// this very harness; requires building with `--features chaos`).
    #[cfg(feature = "chaos")]
    pub chaos: Option<shelfsim_core::ChaosPlan>,
}

impl Default for LockstepConfig {
    fn default() -> Self {
        LockstepConfig {
            commits_per_thread: 2_000,
            max_cycles: 400_000,
            warmup_insts: 1_000,
            trace_window: 512,
            trace_radius: 8,
            cycle_skipping: true,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

/// First-divergence localization: everything needed to reproduce and
/// inspect the mismatch.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Hardware thread of the divergent commit.
    pub thread: usize,
    /// Per-thread architectural commit index (0-based, post-warm-up).
    pub commit_index: u64,
    /// Core cycle at which the divergent instruction committed.
    pub cycle: u64,
    /// Which compared field mismatched first.
    pub field: &'static str,
    /// Reference-side rendering of the field.
    pub expected: String,
    /// Core-side rendering of the field.
    pub got: String,
    /// Reference-side sequence number.
    pub expected_seq: u64,
    /// Core-side sequence number.
    pub got_seq: u64,
    /// Lifecycle-trace JSONL window around the divergent sequence number.
    pub trace_window: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence at thread {} commit {} (cycle {}): {} expected {} got {} (ref seq {}, core seq {})",
            self.thread,
            self.commit_index,
            self.cycle,
            self.field,
            self.expected,
            self.got,
            self.expected_seq,
            self.got_seq
        )
    }
}

/// A cross-cutting invariant violated by an otherwise non-divergent run.
#[derive(Clone, Debug)]
pub struct InvariantViolation {
    /// Stable kind tag (`stuck`, `commit-count`, `stall-attribution`,
    /// `event-conservation`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invariant violation [{}]: {}", self.kind, self.detail)
    }
}

/// Summary of a clean (fully matching) lockstep run.
#[derive(Clone, Debug)]
pub struct CleanStats {
    /// Cycles ticked.
    pub cycles: u64,
    /// Architectural commits validated per thread (== the configured
    /// target).
    pub committed: Vec<u64>,
    /// Per-thread FNV-1a fingerprint over the validated commit stream
    /// (sequence numbers, PCs, operations, memory addresses, branch
    /// outcomes, and synthetic values) — the cross-design identity the
    /// sensitivity sweep asserts.
    pub fingerprints: Vec<u64>,
}

/// Outcome of one lockstep run.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Every validated commit matched the reference and all invariants
    /// held.
    Clean(CleanStats),
    /// The core's commit stream left the reference stream.
    Diverged(Box<Divergence>),
    /// The streams matched as far as they went, but an invariant failed.
    Invariant(InvariantViolation),
}

impl Verdict {
    /// Stable lowercase tag for reports and journals.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Clean(_) => "clean",
            Verdict::Diverged(_) => "diverged",
            Verdict::Invariant(_) => "invariant",
        }
    }

    /// True for [`Verdict::Clean`].
    pub fn is_clean(&self) -> bool {
        matches!(self, Verdict::Clean(_))
    }
}

/// One reference thread: the in-order functional model plus the two value
/// states (reference-applied and core-applied).
struct RefThread {
    src: TraceSource,
    expected_state: ArchState,
    got_state: ArchState,
    commit_index: u64,
    fingerprint: u64,
}

/// Renders a branch outcome for divergence messages.
fn render_branch(b: &Option<shelfsim_isa::BranchInfo>) -> String {
    match b {
        None => "none".to_owned(),
        Some(b) => format!("taken={} next_pc={:#x}", b.taken, b.next_pc),
    }
}

fn render_mem(m: &Option<shelfsim_isa::MemInfo>) -> String {
    match m {
        None => "none".to_owned(),
        Some(m) => format!("addr={:#x} size={}", m.addr, m.size),
    }
}

fn render_effect(e: &InstEffect) -> String {
    let dest = match e.dest_value {
        None => "none".to_owned(),
        Some(v) => format!("{v:#x}"),
    };
    match e.store {
        None => format!("dest={dest}"),
        Some((a, v)) => format!("dest={dest} store={a:#x}:{v:#x}"),
    }
}

/// Runs the core on `programs` (one per thread, shared by the core and the
/// reference, never copied) and validates `lcfg.commits_per_thread`
/// architectural commits per thread in lockstep against the in-order
/// functional reference.
///
/// # Panics
///
/// Panics if the program count is not `cfg.threads` or the configuration
/// is invalid (same contract as [`Core::new`]).
pub fn run_lockstep<P: Into<Arc<Program>>>(
    cfg: &CoreConfig,
    programs: impl IntoIterator<Item = P>,
    lcfg: &LockstepConfig,
) -> Verdict {
    let programs: Vec<Arc<Program>> = programs.into_iter().map(Into::into).collect();
    assert_eq!(programs.len(), cfg.threads, "one program per thread");
    let threads = cfg.threads;
    let traces: Vec<TraceSource> = programs
        .iter()
        .enumerate()
        .map(|(t, p)| TraceSource::new(Arc::clone(p), t))
        .collect();
    let mut core = Core::new(cfg.clone(), traces);
    core.set_cycle_skipping(lcfg.cycle_skipping);
    core.enable_commit_observer();
    core.enable_tracer(lcfg.trace_window, TRACE_SAMPLE_EVERY);
    core.warm_caches();
    core.warm_functional(lcfg.warmup_insts);
    #[cfg(feature = "chaos")]
    if let Some(plan) = lcfg.chaos {
        core.enable_chaos(plan);
    }

    // Build each thread's reference source and fast-forward it to the
    // core's post-warm-up fetch position: warm-up consumes fetches without
    // committing, so the observed stream starts exactly there. The
    // reference never rewinds, so the skipped prefix is walked past its
    // replay buffer.
    let mut refs: Vec<RefThread> = (0..threads)
        .map(|t| {
            let mut src = TraceSource::new(Arc::clone(&programs[t]), t);
            src.walk(core.next_fetch_seq(t), |_, _, _| {});
            RefThread {
                src,
                expected_state: ArchState::new(t),
                got_state: ArchState::new(t),
                commit_index: 0,
                fingerprint: FNV_OFFSET,
            }
        })
        .collect();

    // The core is driven in bounded blocks: `tick_bounded` may fast-forward
    // provably idle spans (bit-identical results, commit cycles included),
    // and the commit-observer queue is drained at block boundaries. Blocks
    // are short enough that a reached commit target stops the run promptly.
    const BLOCK: u64 = 256;
    let mut events: Vec<CommitEvent> = Vec::new();
    let mut cycles = 0u64;
    while cycles < lcfg.max_cycles
        && refs
            .iter()
            .any(|r| r.commit_index < lcfg.commits_per_thread)
    {
        cycles += core.tick_bounded(BLOCK.min(lcfg.max_cycles - cycles));
        core.drain_commit_events(&mut events);
        for ev in events.drain(..) {
            if ev.thread >= threads {
                return Verdict::Invariant(InvariantViolation {
                    kind: "event-conservation",
                    detail: format!("commit event for out-of-range thread {}", ev.thread),
                });
            }
            let r = &mut refs[ev.thread];
            if r.commit_index >= lcfg.commits_per_thread {
                continue; // past the validated window
            }
            // The reference never rewinds: each instruction is released
            // as soon as it is compared.
            let (exp_seq, exp_inst) = r.src.fetch();
            r.src.release_through(exp_seq);
            let exp_effect = r.expected_state.apply(&exp_inst);
            let got_effect = r.got_state.apply(&ev.inst);

            let mismatch: Option<(&'static str, String, String)> = if exp_seq != ev.seq {
                Some(("seq", exp_seq.to_string(), ev.seq.to_string()))
            } else if exp_inst.pc != ev.inst.pc {
                Some((
                    "pc",
                    format!("{:#x}", exp_inst.pc),
                    format!("{:#x}", ev.inst.pc),
                ))
            } else if exp_inst.op != ev.inst.op {
                Some((
                    "op",
                    format!("{:?}", exp_inst.op),
                    format!("{:?}", ev.inst.op),
                ))
            } else if exp_inst.dest != ev.inst.dest || exp_inst.srcs != ev.inst.srcs {
                Some((
                    "registers",
                    format!("dest={:?} srcs={:?}", exp_inst.dest, exp_inst.srcs),
                    format!("dest={:?} srcs={:?}", ev.inst.dest, ev.inst.srcs),
                ))
            } else if exp_inst.mem != ev.inst.mem {
                Some(("mem", render_mem(&exp_inst.mem), render_mem(&ev.inst.mem)))
            } else if exp_inst.branch != ev.inst.branch {
                Some((
                    "branch",
                    render_branch(&exp_inst.branch),
                    render_branch(&ev.inst.branch),
                ))
            } else if exp_effect != got_effect {
                Some((
                    "value",
                    render_effect(&exp_effect),
                    render_effect(&got_effect),
                ))
            } else {
                None
            };

            if let Some((field, expected, got)) = mismatch {
                let commit_index = r.commit_index;
                let trace_window = core
                    .tracer()
                    .map(|tr| tr.export_window_jsonl(ev.thread as u8, ev.seq, lcfg.trace_radius))
                    .unwrap_or_default();
                return Verdict::Diverged(Box::new(Divergence {
                    thread: ev.thread,
                    commit_index,
                    cycle: ev.cycle,
                    field,
                    expected,
                    got,
                    expected_seq: exp_seq,
                    got_seq: ev.seq,
                    trace_window,
                }));
            }

            // Matched: fold the commit into the thread fingerprint.
            let mut h = r.fingerprint;
            h = fnv1a(h, ev.seq);
            h = fnv1a(h, ev.inst.pc);
            h = fnv1a(h, ev.inst.op as u64);
            if let Some(m) = ev.inst.mem {
                h = fnv1a(h, m.addr);
                h = fnv1a(h, m.size as u64);
            }
            if let Some(b) = ev.inst.branch {
                h = fnv1a(h, b.taken as u64);
                h = fnv1a(h, b.next_pc);
            }
            if let Some(v) = got_effect.dest_value {
                h = fnv1a(h, v);
            }
            if let Some((a, v)) = got_effect.store {
                h = fnv1a(h, a);
                h = fnv1a(h, v);
            }
            r.fingerprint = h;
            r.commit_index += 1;
        }
    }

    if let Some((t, r)) = refs
        .iter()
        .enumerate()
        .find(|(_, r)| r.commit_index < lcfg.commits_per_thread)
    {
        return Verdict::Invariant(InvariantViolation {
            kind: "stuck",
            detail: format!(
                "thread {t} committed only {} of {} target instructions in {} cycles",
                r.commit_index, lcfg.commits_per_thread, cycles
            ),
        });
    }

    // End-of-run invariants.
    // 1. Event conservation: every architectural commit the counters saw
    //    was observed (no event lost, none invented).
    let counted = core.counters.committed;
    let observed: u64 = (0..threads).map(|t| core.committed(t)).sum();
    if counted != observed {
        return Verdict::Invariant(InvariantViolation {
            kind: "event-conservation",
            detail: format!(
                "counters.committed = {counted} but per-thread commits sum to {observed}"
            ),
        });
    }
    // 2. Per-thread commit counters agree with the drained event stream
    //    (the validated prefix plus any overshoot still queued or skipped).
    for (t, r) in refs.iter().enumerate() {
        if core.committed(t) < r.commit_index {
            return Verdict::Invariant(InvariantViolation {
                kind: "commit-count",
                detail: format!(
                    "thread {t}: core reports {} commits but {} events were validated",
                    core.committed(t),
                    r.commit_index
                ),
            });
        }
    }
    // 3. Stall attribution still sums to cycles on both pipeline sides
    //    (PR 4's per-cycle accounting, asserted per run here).
    if let Some(tr) = core.tracer() {
        for t in 0..threads {
            for (side, row) in [
                ("dispatch", tr.dispatch_stalls(t)),
                ("issue", tr.issue_stalls(t)),
            ] {
                let sum: u64 = row.iter().sum();
                if sum != cycles {
                    return Verdict::Invariant(InvariantViolation {
                        kind: "stall-attribution",
                        detail: format!(
                            "thread {t} {side} stall causes sum to {sum}, expected {cycles} cycles"
                        ),
                    });
                }
            }
        }
    }

    Verdict::Clean(CleanStats {
        cycles,
        committed: refs.iter().map(|r| r.commit_index).collect(),
        fingerprints: refs.iter().map(|r| r.fingerprint).collect(),
    })
}
