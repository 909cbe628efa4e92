//! Resource-adequacy pass (`SR…` codes): static proof obligations that a
//! config's per-thread resource shares suffice for a program's dependence
//! and memory structure.
//!
//! PR 2's watchdog *detects* a wedged pipeline after the fact; this pass
//! *prevents* a class of those runs by refusing configs whose adequacy it
//! cannot statically prove. Errors mean "no adequacy proof exists — the
//! run may deadlock or livelock"; warnings mean "provably a throughput
//! hazard, but forward progress still provable".
//!
//! | Code  | Severity | Obligation that failed |
//! |-------|----------|------------------------|
//! | SR001 | Error    | shelf depth vs. longest in-sequence dependence run |
//! | SR002 | Warning  | data-MSHR count vs. static outstanding-miss demand |
//! | SR003 | Warning  | per-thread LQ/SQ/ROB share vs. densest block |
//! | SR004 | Error    | a required progress resource has zero capacity |

use crate::cfg::Cfg;
use crate::diagnostic::{Diagnostic, Severity};
use shelfsim_core::{CoreConfig, SteerPolicy};
use shelfsim_isa::{ArchReg, FuKind, OpClass};
use shelfsim_workload::asm::PcLineMap;
use shelfsim_workload::program::{AccessPattern, Program, Region};

/// Everything the error obligations (SR001, SR004) read from a program,
/// derived once from its CFG. The facts depend only on the program, so a
/// campaign keeps them per program and re-checks them against each
/// config; [`check_adequacy`] checks the same facts, so each obligation
/// and its message have one implementation.
#[derive(Clone, Debug)]
pub(crate) struct AdequacyFacts {
    name: &'static str,
    /// The longest in-sequence dependence run in any reachable block (the
    /// maximal chain of consecutive instructions each reading the previous
    /// instruction's destination: the runs the shelf steers) and the PC
    /// of its first instruction (SR001).
    run: (usize, u64),
    /// Whether any reachable instruction accesses memory (SR004).
    has_mem: bool,
    /// Whether any reachable instruction is a store (SR004).
    has_store: bool,
    /// Per [`FuKind::index`], the first reachable operation needing that
    /// unit and its PC (SR004).
    first_use: [Option<(OpClass, u64)>; FuKind::ALL.len()],
}

impl AdequacyFacts {
    /// Derives the facts in one pass over `program`'s reachable blocks.
    pub(crate) fn new(program: &Program, graph: &Cfg) -> Self {
        let mut facts = AdequacyFacts {
            name: program.name,
            run: (0, 0),
            has_mem: false,
            has_store: false,
            first_use: [None; FuKind::ALL.len()],
        };
        for bi in graph.reachable_blocks() {
            let b = &program.blocks[bi];
            let mut run = 0usize;
            let mut run_start_pc = 0u64;
            let mut prev_dest: Option<ArchReg> = None;
            for inst in &b.body {
                let in_seq = prev_dest.is_some_and(|d| inst.srcs.iter().flatten().any(|&s| s == d));
                if in_seq {
                    run += 1;
                } else {
                    run = 1;
                    run_start_pc = inst.pc;
                }
                if run > facts.run.0 {
                    facts.run = (run, run_start_pc);
                }
                prev_dest = inst.dest;
                facts.has_mem |= inst.op.is_mem();
                facts.has_store |= inst.op == OpClass::Store;
                facts.first_use[inst.op.fu_kind().index()].get_or_insert((inst.op, inst.pc));
            }
            let br = &b.branch_inst;
            facts.first_use[br.op.fu_kind().index()].get_or_insert((br.op, br.pc));
        }
        facts
    }

    /// SR001: shelf depth vs. in-sequence dependence runs, with the PC of
    /// the offending run.
    ///
    /// A shelf issues strictly in FIFO order; steering policies move whole
    /// in-sequence runs there. If a thread's shelf share cannot hold even
    /// `min(longest run, dispatch width)` instructions, a steered run can
    /// wedge dispatch with the shelf full while every shelf entry waits on
    /// an IQ-side producer — the adequacy proof fails.
    fn sr001(&self, cfg: &CoreConfig) -> Option<(Diagnostic, Option<u64>)> {
        if cfg.shelf_entries == 0 || cfg.steer == SteerPolicy::AlwaysIq {
            return None;
        }
        let (run, run_pc) = self.run;
        let need = run.min(cfg.dispatch_width);
        (cfg.shelf_per_thread() < need).then(|| {
            let d = Diagnostic::new(
                "SR001",
                Severity::Error,
                format!(
                    "cannot prove deadlock-freedom: shelf share is {} entries/thread but \
                     {} has an in-sequence run of {} dependent instruction(s) (need >= {})",
                    cfg.shelf_per_thread(),
                    self.name,
                    run,
                    need
                ),
            );
            (d, Some(run_pc))
        })
    }

    /// SR004: zero-capacity progress resources, each with the PC of the
    /// first operation that needs the resource when there is one.
    ///
    /// A resource on the commit path with zero capacity is an
    /// unconditional deadlock, not a sizing question.
    fn sr004(&self, cfg: &CoreConfig) -> Vec<(Diagnostic, Option<u64>)> {
        let mut out = Vec::new();
        if self.has_mem && cfg.hierarchy.data_mshrs == 0 {
            out.push((
                Diagnostic::new(
                    "SR004",
                    Severity::Error,
                    format!(
                        "{} performs memory accesses but the config has zero data MSHRs: the \
                         first miss can never complete",
                        self.name
                    ),
                ),
                None,
            ));
        }
        if self.has_store && cfg.store_buffer_entries == 0 {
            out.push((
                Diagnostic::new(
                    "SR004",
                    Severity::Error,
                    format!(
                        "{} performs stores but the store buffer has zero entries: committed \
                         stores can never drain",
                        self.name
                    ),
                ),
                None,
            ));
        }
        for kind in FuKind::ALL {
            let Some((op, pc)) = self.first_use[kind.index()] else {
                continue;
            };
            if cfg.fu_count(kind) == 0 {
                out.push((
                    Diagnostic::new(
                        "SR004",
                        Severity::Error,
                        format!(
                            "{} uses a {:?} operation but the config has zero {:?} units: it \
                             can never issue",
                            self.name, op, kind
                        ),
                    ),
                    Some(pc),
                ));
            }
        }
        out
    }

    /// The failed error obligations on `cfg` in [`check_adequacy`]'s
    /// order (SR001, then SR004), without spans.
    pub(crate) fn errors(&self, cfg: &CoreConfig) -> impl Iterator<Item = Diagnostic> {
        self.sr001(cfg)
            .into_iter()
            .chain(self.sr004(cfg))
            .map(|(d, _)| d)
    }
}

/// Checks that `cfg`'s per-thread resource shares are statically adequate
/// for `program`, attaching spans from `source` when given.
pub fn check_adequacy(
    program: &Program,
    cfg: &CoreConfig,
    source: Option<(&str, &PcLineMap)>,
) -> Vec<Diagnostic> {
    check_adequacy_on(program, &Cfg::new(program), cfg, source)
}

/// [`check_adequacy`] over `program`'s already-built CFG `graph`.
pub(crate) fn check_adequacy_on(
    program: &Program,
    graph: &Cfg,
    cfg: &CoreConfig,
    source: Option<(&str, &PcLineMap)>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let spanned = |(d, pc): (Diagnostic, Option<u64>)| match source
        .zip(pc)
        .and_then(|((f, m), pc)| m.get(&pc).map(|&l| (f, l)))
    {
        Some((file, line)) => d.with_span(file, line),
        None => d,
    };
    let facts = AdequacyFacts::new(program, graph);

    // ---- SR001: shelf depth vs. in-sequence dependence runs --------------
    diags.extend(facts.sr001(cfg).map(spanned));

    // ---- SR002: MSHR count vs. static outstanding-miss demand ------------
    // Every static memory access targeting a region larger than the L1 can
    // miss concurrently, but in-flight misses are also capped by the
    // thread's LQ+SQ share; exceeding the MSHR pool serializes misses.
    let miss_statics = graph
        .reachable_blocks()
        .flat_map(|bi| &program.blocks[bi].body)
        .filter(|i| {
            matches!(
                i.access,
                Some(
                    AccessPattern::Strided { region, .. }
                        | AccessPattern::PointerChase { region }
                        | AccessPattern::Random { region }
                ) if region != Region::L1
            )
        })
        .count();
    let demand = miss_statics.min(cfg.lq_per_thread() + cfg.sq_per_thread());
    if demand > cfg.hierarchy.data_mshrs {
        diags.push(Diagnostic::new(
            "SR002",
            Severity::Warning,
            format!(
                "static outstanding-miss demand {} exceeds the {} data MSHRs: misses will \
                 serialize ({} has {} L1-exceeding memory static(s))",
                demand, cfg.hierarchy.data_mshrs, program.name, miss_statics
            ),
        ));
    }

    // ---- SR003: per-thread LQ/SQ/ROB share vs. densest block -------------
    // A block whose loads exceed the thread's LQ share (or stores the SQ
    // share, or total length the ROB share) cannot be fully in flight:
    // dispatch stalls inside every entry of that block.
    for bi in graph.reachable_blocks() {
        let b = &program.blocks[bi];
        let loads = b.body.iter().filter(|i| i.op == OpClass::Load).count();
        let stores = b.body.iter().filter(|i| i.op == OpClass::Store).count();
        let first_pc = b.body.first().map_or(b.branch_inst.pc, |i| i.pc);
        for (what, have, need) in [
            ("LQ", cfg.lq_per_thread(), loads),
            ("SQ", cfg.sq_per_thread(), stores),
            ("ROB", cfg.rob_per_thread(), b.len()),
        ] {
            if need > have {
                diags.push(spanned((
                    Diagnostic::new(
                        "SR003",
                        Severity::Warning,
                        format!(
                            "block {} of {} needs {} {} entries but each thread's share is \
                             {}: the block can never be fully in flight",
                            bi, program.name, need, what, have
                        ),
                    ),
                    Some(first_pc),
                )));
            }
        }
    }

    // ---- SR004: zero-capacity progress resources -------------------------
    diags.extend(facts.sr004(cfg).into_iter().map(spanned));

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use shelfsim_workload::asm::assemble_with_lines;
    use shelfsim_workload::kernels;

    fn kernel(name: &str) -> Program {
        kernels::by_name(name)
            .expect("in library")
            .assemble()
            .expect("valid")
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn standard_designs_prove_adequate_on_every_kernel() {
        use shelfsim_analyze_testcfgs::*;
        for cfg in all_standard_configs() {
            for k in kernels::all() {
                let diags = check_adequacy(&k.assemble().expect("valid"), &cfg, None);
                assert!(
                    !diags.iter().any(|d| d.severity == Severity::Error),
                    "{} on {:?}: {diags:?}",
                    k.name,
                    cfg.steer
                );
            }
        }
    }

    #[test]
    fn sr001_rejects_starved_shelf_with_span() {
        let mut cfg = CoreConfig::base64_shelf64(4, SteerPolicy::AlwaysShelf, false);
        cfg.shelf_entries = 4; // 1 entry per thread
        let k = kernels::by_name("daxpy").expect("in library");
        let (p, lines) = assemble_with_lines(k.source).expect("valid");
        let diags = check_adequacy(&p, &cfg, Some(("daxpy.s", &lines)));
        let d = diags
            .iter()
            .find(|d| d.code == "SR001")
            .expect("SR001 fires");
        assert_eq!(d.severity, Severity::Error);
        let span = d.span.as_ref().expect("spanned");
        assert_eq!(span.file, "daxpy.s");
        assert!(span.line > 0);
    }

    #[test]
    fn sr002_warns_when_miss_demand_exceeds_mshrs() {
        let mut cfg = CoreConfig::base64(1);
        cfg.hierarchy.data_mshrs = 1;
        let diags = check_adequacy(&kernel("chase2"), &cfg, None);
        let d = diags
            .iter()
            .find(|d| d.code == "SR002")
            .expect("SR002 fires");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn sr003_warns_on_undersized_per_thread_shares() {
        let mut cfg = CoreConfig::base64(8);
        cfg.lq_entries = 8; // 1 LQ entry per thread; daxpy has 2 loads
        let diags = check_adequacy(&kernel("daxpy"), &cfg, None);
        assert!(codes(&diags).contains(&"SR003"), "{diags:?}");
    }

    #[test]
    fn sr004_rejects_zero_capacity_resources() {
        let mut cfg = CoreConfig::base64(1);
        cfg.hierarchy.data_mshrs = 0;
        let diags = check_adequacy(&kernel("daxpy"), &cfg, None);
        let sr4: Vec<_> = diags.iter().filter(|d| d.code == "SR004").collect();
        assert!(!sr4.is_empty());
        assert!(sr4.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn sr004_rejects_missing_fu_kind_with_span() {
        let mut cfg = CoreConfig::base64(1);
        cfg.fu_fp = 0;
        let k = kernels::by_name("reduce").expect("in library");
        let (p, lines) = assemble_with_lines(k.source).expect("valid");
        let diags = check_adequacy(&p, &cfg, Some(("reduce.s", &lines)));
        let d = diags
            .iter()
            .find(|d| d.code == "SR004" && d.message.contains("Fp"))
            .expect("zero-FP-unit error");
        assert!(d.span.is_some());
    }
}

#[cfg(test)]
mod shelfsim_analyze_testcfgs {
    use shelfsim_core::{CoreConfig, SteerPolicy};

    pub fn all_standard_configs() -> Vec<CoreConfig> {
        let mut v = Vec::new();
        for threads in [1, 2, 4, 8] {
            v.push(CoreConfig::base64(threads));
            v.push(CoreConfig::base128(threads));
            for steer in [
                SteerPolicy::Practical,
                SteerPolicy::Oracle,
                SteerPolicy::AlwaysShelf,
            ] {
                v.push(CoreConfig::base64_shelf64(threads, steer, true));
            }
        }
        v
    }
}
