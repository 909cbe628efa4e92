//! Static dataflow lints over a [`Program`] (`SA…` codes).
//!
//! | Code  | Severity | Finding |
//! |-------|----------|---------|
//! | SA001 | Error    | register read but never written and not an input register |
//! | SA002 | Warning  | basic block unreachable from the entry block |
//! | SA003 | Warning  | dead write: value overwritten before any read |
//! | SA004 | Info     | in-sequence series length estimate (shelf affinity) |
//! | SA005 | Warning  | strided footprint contradicts the `region=` label |
//!
//! The analyses treat a kernel the way the trace source runs it: an
//! infinite loop entered at block 0, with `loop`/`beq` back-edges and a
//! wrap-around from the last block. Liveness is conservative across
//! backward edges (everything is assumed live), so loop-carried
//! accumulators are never flagged — only values overwritten before any
//! read on a forward path are dead.

use crate::cfg::{block_successors, Cfg};
use crate::diagnostic::{Diagnostic, Severity};
use shelfsim_isa::{ArchReg, NUM_ARCH_REGS};
use shelfsim_workload::asm::PcLineMap;
use shelfsim_workload::program::{AccessPattern, Program, Terminator};

/// Registers a kernel may read without defining: by convention `r0`–`r7`
/// and `f0`–`f7` are inputs (base addresses, constants), and `r24`–`r27`
/// are pre-initialized pointer-chase cursors.
fn is_input_reg(r: ArchReg) -> bool {
    let i = r.index();
    i < 8 || (32..40).contains(&i) || (24..28).contains(&i)
}

fn reg_name(r: ArchReg) -> String {
    if r.is_fp() {
        format!("f{}", r.index() - 32)
    } else {
        format!("r{}", r.index())
    }
}

fn bit(r: ArchReg) -> u64 {
    const { assert!(NUM_ARCH_REGS <= 64, "register liveness masks are u64") };
    1u64 << r.index()
}

/// Lints `program`, attaching spans from `source` (file name + PC→line
/// map from [`shelfsim_workload::asm::assemble_with_lines`]) when given.
pub fn lint_program(program: &Program, source: Option<(&str, &PcLineMap)>) -> Vec<Diagnostic> {
    lint_program_on(program, &Cfg::new(program), source)
}

/// [`lint_program`] over `program`'s already-built `cfg`.
pub(crate) fn lint_program_on(
    program: &Program,
    cfg: &Cfg,
    source: Option<(&str, &PcLineMap)>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let span_of = |pc: u64| source.and_then(|(file, map)| map.get(&pc).map(|&l| (file, l)));
    let spanned = |d: Diagnostic, pc: u64| match span_of(pc) {
        Some((file, line)) => d.with_span(file, line),
        None => d,
    };
    let n = program.blocks.len();

    // ---- SA002: reachability from the entry block -----------------------
    let reachable = &cfg.reachable;
    for (i, b) in program.blocks.iter().enumerate() {
        if !reachable[i] {
            let pc = b.body.first().map_or(b.branch_inst.pc, |inst| inst.pc);
            diags.push(spanned(
                Diagnostic::new(
                    "SA002",
                    Severity::Warning,
                    format!("block {i} is unreachable from the entry block"),
                ),
                pc,
            ));
        }
    }

    // ---- SA001: reads of registers no instruction ever writes -----------
    let mut defined = 0u64;
    for b in &program.blocks {
        for inst in &b.body {
            if let Some(d) = inst.dest {
                defined |= bit(d);
            }
        }
    }
    let mut reported = 0u64;
    for b in &program.blocks {
        let reads = b
            .body
            .iter()
            .map(|inst| (inst.pc, inst.srcs))
            .chain(std::iter::once((b.branch_inst.pc, b.branch_inst.srcs)));
        for (pc, srcs) in reads {
            for r in srcs.iter().flatten() {
                if defined & bit(*r) == 0 && !is_input_reg(*r) && reported & bit(*r) == 0 {
                    reported |= bit(*r);
                    diags.push(spanned(
                        Diagnostic::new(
                            "SA001",
                            Severity::Error,
                            format!(
                                "{} is read but never written (inputs are r0-r7, f0-f7, \
                                 and chase cursors r24-r27)",
                                reg_name(*r)
                            ),
                        ),
                        pc,
                    ));
                }
            }
        }
    }

    // ---- SA003: dead writes (forward-path liveness) ----------------------
    // live_in[j] is only consulted for forward edges (j > i); any backward
    // edge or `ret` makes everything live, so loop-carried values survive.
    let mut live_in = vec![u64::MAX; n];
    for i in (0..n).rev() {
        let b = &program.blocks[i];
        let succs = block_successors(b, i, n);
        let mut live = if succs.is_empty() {
            u64::MAX
        } else {
            succs.iter().fold(0u64, |acc, &j| {
                acc | if j > i { live_in[j] } else { u64::MAX }
            })
        };
        for r in b.branch_inst.srcs.iter().flatten() {
            live |= bit(*r);
        }
        for inst in b.body.iter().rev() {
            if let Some(d) = inst.dest {
                if live & bit(d) == 0 && reachable[i] {
                    diags.push(spanned(
                        Diagnostic::new(
                            "SA003",
                            Severity::Warning,
                            format!(
                                "write to {} is dead: overwritten before any read",
                                reg_name(d)
                            ),
                        ),
                        inst.pc,
                    ));
                }
                live &= !bit(d);
            }
            for r in inst.srcs.iter().flatten() {
                live |= bit(*r);
            }
        }
        live_in[i] = live;
    }

    // ---- SA004: in-sequence series length estimate -----------------------
    // A body instruction is "in-sequence" when it has a RAW dependence on
    // the immediately preceding instruction — the paper's shelf steers
    // exactly such runs. Longer mean series predict more shelf coverage.
    let mut runs: Vec<usize> = Vec::new();
    let mut total_insts = 0usize;
    for (i, b) in program.blocks.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        let mut run = 0usize;
        let mut prev_dest: Option<ArchReg> = None;
        for inst in &b.body {
            total_insts += 1;
            let in_seq = prev_dest.is_some_and(|d| inst.srcs.iter().flatten().any(|&s| s == d));
            if in_seq {
                run += 1;
            } else {
                if run > 0 {
                    runs.push(run);
                }
                run = 1;
            }
            prev_dest = inst.dest;
        }
        if run > 0 {
            runs.push(run);
        }
    }
    if total_insts > 0 {
        let max = runs.iter().copied().max().unwrap_or(0);
        let mean = runs.iter().sum::<usize>() as f64 / runs.len().max(1) as f64;
        diags.push(Diagnostic::new(
            "SA004",
            Severity::Info,
            format!(
                "in-sequence series estimate: mean {mean:.1}, max {max} over {total_insts} \
                 body instruction(s); longer series shift more work to the shelf"
            ),
        ));
    }

    // ---- SA005: strided footprint vs. region label -----------------------
    for b in &program.blocks {
        let loop_trips = match b.terminator {
            Terminator::Loop { trip_mean, .. } => Some(trip_mean as u64),
            _ => None,
        };
        for inst in &b.body {
            let Some(AccessPattern::Strided { region, stride }) = inst.access else {
                continue;
            };
            if stride as u64 >= region.size() {
                diags.push(spanned(
                    Diagnostic::new(
                        "SA005",
                        Severity::Warning,
                        format!(
                            "stride {} >= region size {} ({:?}): every access aliases after \
                             wrap-around, contradicting the region label",
                            stride,
                            region.size(),
                            region
                        ),
                    ),
                    inst.pc,
                ));
            } else if let Some(trips) = loop_trips {
                let walked = stride as u64 * trips;
                if walked > region.size() {
                    diags.push(spanned(
                        Diagnostic::new(
                            "SA005",
                            Severity::Warning,
                            format!(
                                "one loop entry walks stride {} x trips {} = {} bytes, past \
                                 the {} byte {:?} region: the working set contradicts the \
                                 region label",
                                stride,
                                trips,
                                walked,
                                region.size(),
                                region
                            ),
                        ),
                        inst.pc,
                    ));
                }
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use shelfsim_workload::asm::{assemble, assemble_with_lines};

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn lint_src(src: &str) -> Vec<Diagnostic> {
        let (p, lines) = assemble_with_lines(src).unwrap();
        lint_program(&p, Some(("test.s", &lines)))
    }

    // ---- SA001 -----------------------------------------------------------

    #[test]
    fn sa001_flags_read_of_never_written_register() {
        let diags = lint_src("top:\n add r10, r9, r15\n loop top, trips=10\n");
        let sa1: Vec<_> = diags.iter().filter(|d| d.code == "SA001").collect();
        assert_eq!(sa1.len(), 2, "both r9 and r15 are undefined: {diags:?}");
        assert!(sa1.iter().all(|d| d.severity == Severity::Error));
        assert!(sa1.iter().any(|d| d.message.contains("r9")));
        assert!(sa1.iter().any(|d| d.message.contains("r15")));
        assert_eq!(sa1[0].span.as_ref().unwrap().line, 2);
    }

    #[test]
    fn sa001_accepts_inputs_and_defined_registers() {
        let diags = lint_src(
            "top:\n add r8, r0\n mul r9, r8, r8\n load r10, [r1], region=l1\n \
             loop top, trips=10\n",
        );
        assert!(!codes(&diags).contains(&"SA001"), "{diags:?}");
    }

    // ---- SA002 -----------------------------------------------------------

    #[test]
    fn sa002_flags_unreachable_block() {
        // `jmp top` skips the middle block; nothing targets it.
        let diags = lint_src(
            "top:\n add r8, r8\n jmp end\norphan:\n mul r9, r8, r8\n jmp end\n\
             end:\n add r10, r8\n jmp top\n",
        );
        let d = diags
            .iter()
            .find(|d| d.code == "SA002")
            .expect("SA002 fires");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("block 1"), "{}", d.message);
    }

    #[test]
    fn sa002_quiet_when_all_blocks_reachable() {
        let diags = lint_src(
            "a:\n add r8, r8\n beq r8, c, p=0.5\nb:\n mul r9, r8, r8\n jmp a\n\
             c:\n add r10, r8\n jmp a\n",
        );
        assert!(!codes(&diags).contains(&"SA002"), "{diags:?}");
    }

    // ---- SA003 -----------------------------------------------------------

    #[test]
    fn sa003_flags_overwrite_before_read() {
        let diags = lint_src(
            "top:\n add r8, r0\n add r8, r1\n mul r9, r8, r8\n \
                              loop top, trips=10\n",
        );
        let d = diags
            .iter()
            .find(|d| d.code == "SA003")
            .expect("SA003 fires");
        assert!(d.message.contains("r8"), "{}", d.message);
        assert_eq!(
            d.span.as_ref().unwrap().line,
            2,
            "first write is the dead one"
        );
        assert_eq!(diags.iter().filter(|d| d.code == "SA003").count(), 1);
    }

    #[test]
    fn sa003_spares_loop_carried_accumulators() {
        // r8 is read only by its own next-iteration write; the back-edge
        // keeps it live. r11's value escapes through the loop exit.
        let diags = lint_src(
            "top:\n add r8, r8\n mul r11, r8, r8\n load r24, [r24], chase, region=mem\n \
             loop top, trips=100\n",
        );
        assert!(!codes(&diags).contains(&"SA003"), "{diags:?}");
    }

    // ---- SA004 -----------------------------------------------------------

    #[test]
    fn sa004_reports_long_series_for_dependence_chain() {
        let diags = lint_src(
            "top:\n add r8, r0\n mul r9, r8, r8\n add r10, r9\n mul r11, r10, r10\n \
             loop top, trips=10\n",
        );
        let d = diags
            .iter()
            .find(|d| d.code == "SA004")
            .expect("SA004 fires");
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("max 4"), "{}", d.message);
    }

    #[test]
    fn sa004_reports_short_series_for_independent_work() {
        let diags = lint_src(
            "top:\n add r8, r8\n add r9, r9\n add r10, r10\n \
                              loop top, trips=10\n",
        );
        let d = diags
            .iter()
            .find(|d| d.code == "SA004")
            .expect("SA004 fires");
        assert!(d.message.contains("max 1"), "{}", d.message);
    }

    // ---- SA005 -----------------------------------------------------------

    #[test]
    fn sa005_flags_loop_walking_past_region() {
        // 64 KB stride x 500 trips = 32 MB walked through a 16 KB L1 region.
        let diags =
            lint_src("top:\n load r8, [r0], stride=65536, region=l1\n loop top, trips=500\n");
        assert!(codes(&diags).contains(&"SA005"), "{diags:?}");
    }

    #[test]
    fn sa005_flags_stride_exceeding_region_size() {
        let diags = lint_src("top:\n load r8, [r0], stride=32768, region=l1\n jmp top\n");
        let d = diags
            .iter()
            .find(|d| d.code == "SA005")
            .expect("SA005 fires");
        assert!(d.message.contains("aliases"), "{}", d.message);
    }

    #[test]
    fn sa005_quiet_for_region_resident_strides() {
        let diags = lint_src("top:\n load f8, [r0], stride=8, region=l2\n loop top, trips=200\n");
        assert!(!codes(&diags).contains(&"SA005"), "{diags:?}");
    }

    // ---- generated programs ---------------------------------------------

    #[test]
    fn suite_programs_are_free_of_hard_errors() {
        // The synthetic generator must never produce def-before-use bugs.
        use shelfsim_workload::program::ProgramBuilder;
        for name in shelfsim_workload::suite::names().iter().take(8) {
            let profile = shelfsim_workload::suite::by_name(name).expect("suite profile");
            let p = ProgramBuilder::new(profile, 7).build();
            let diags = lint_program(&p, None);
            assert!(
                !diags.iter().any(|d| d.severity == Severity::Error),
                "{name}: {diags:?}"
            );
        }
    }

    #[test]
    fn spanless_lint_works_without_a_line_map() {
        let p = assemble("top:\n add r10, r9\n loop top, trips=10\n").unwrap();
        let diags = lint_program(&p, None);
        let d = diags
            .iter()
            .find(|d| d.code == "SA001")
            .expect("SA001 fires");
        assert!(d.span.is_none());
    }
}
