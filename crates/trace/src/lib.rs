//! # shelfsim-trace
//!
//! Pipeline observability for the shelfsim core: bounded per-instruction
//! lifecycle traces, per-cycle occupancy sampling, per-thread stall-cause
//! attribution, and exporters to JSONL and Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`).
//!
//! The paper's headline results all rest on *explaining* where instructions
//! spend time — in-sequence series lengths, shelf vs. IQ issue, and
//! per-structure occupancy. End-of-run counters answer "how much"; this
//! crate answers "when" and "why", which is what debugging a timing model
//! actually needs.
//!
//! ## Event model
//!
//! One [`Lifecycle`] record per dynamic instruction that reached a steering
//! decision, completed at the instruction's *end of life* (commit or
//! squash). The record carries the cycle the instruction passed each
//! pipeline milestone:
//!
//! ```text
//! fetch -> steer decision + rename/dispatch -> issue -> writeback -> end
//! ```
//!
//! In this microarchitecture the steering decision is made in the same
//! cycle as rename/dispatch (decode information is consumed at dispatch,
//! paper Figure 3), so `dispatch` timestamps both milestones. `issue` and
//! `writeback` are `None` when the instruction was squashed before reaching
//! them. Instructions squashed while still in the fetch-to-dispatch pipe
//! never made a steering decision and are not recorded; neither are
//! synthetic wrong-path instructions (they have no trace position and never
//! retire).
//!
//! ## Drop policy
//!
//! Both the lifecycle ring and the occupancy-sample ring are bounded:
//! when full, the **oldest** record is evicted and a drop counter is
//! incremented (`dropped()` / `samples_dropped()`). The exported trace is
//! therefore always the most recent `window` instruction ends and the most
//! recent `window` samples; the drop counters say how much history was
//! discarded. Stall-attribution counters are plain saturating tallies and
//! are never dropped.

use shelfsim_isa::OpClass;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Hard cap on threads the attribution tables track (matches the core's
/// practical SMT range; the paper evaluates 1–4 threads).
pub const MAX_TRACE_THREADS: usize = 16;

/// Which queue an instruction was steered to (paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// Conventional unordered issue queue.
    Iq,
    /// The per-thread FIFO shelf.
    Shelf,
}

impl QueueKind {
    /// Stable lowercase name used by both exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            QueueKind::Iq => "iq",
            QueueKind::Shelf => "shelf",
        }
    }
}

/// How an instruction's life ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EndKind {
    /// Retired architecturally.
    Commit,
    /// Squashed by a misspeculation (branch or memory-order violation).
    Squash,
}

impl EndKind {
    /// Stable lowercase name used by both exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            EndKind::Commit => "commit",
            EndKind::Squash => "squash",
        }
    }
}

/// The full per-instruction lifecycle record (see the crate docs for the
/// event model).
#[derive(Clone, Debug)]
pub struct Lifecycle {
    /// Owning hardware thread.
    pub thread: u8,
    /// Trace sequence number within the thread.
    pub seq: u64,
    /// Program counter.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Steering decision (made in the dispatch cycle).
    pub queue: QueueKind,
    /// Cycle fetched.
    pub fetch: u64,
    /// Cycle of the steering decision and rename/dispatch.
    pub dispatch: u64,
    /// Cycle issued to a functional unit (`None`: squashed before issue).
    pub issue: Option<u64>,
    /// Cycle execution wrote back (`None`: squashed before writeback).
    pub writeback: Option<u64>,
    /// Cycle the instruction committed or was squashed.
    pub end: u64,
    /// Whether `end` is a commit or a squash.
    pub end_kind: EndKind,
}

/// Why a thread's dispatch or issue made no progress in a cycle.
///
/// One cause is attributed per thread per cycle on each side (dispatch and
/// issue), chosen by a fixed priority; `Progress` means the thread moved at
/// least one instruction through that stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum StallCause {
    /// The stage moved at least one instruction for this thread.
    Progress = 0,
    /// Nothing in flight for this stage to work on.
    Empty,
    /// Frontend pipe latency: instructions fetched but not yet at dispatch
    /// depth.
    NotReady,
    /// ROB partition full (dispatch).
    RobFull,
    /// Shared IQ full (dispatch).
    IqFull,
    /// LQ or SQ partition full (dispatch).
    LsqFull,
    /// Shelf partition or shelf index space full (dispatch).
    ShelfFull,
    /// No free physical register or extension tag (dispatch).
    NoRename,
    /// Memory barrier serializing dispatch.
    Barrier,
    /// Shelf head blocked: in-order barrier, SSR window, data (including
    /// a source still being forwarded from the IQ cluster), WAW, store
    /// set, or a TSO elder load in flight (issue).
    ShelfHeadBlocked,
    /// A ready memory operation lost MSHR arbitration (issue).
    NoMshr,
    /// Data-ready instructions lost functional-unit or structural
    /// arbitration (issue).
    FuBusy,
    /// Instructions dispatched but none data-ready (issue).
    DataWait,
    /// Data-ready instructions existed but the issue width was exhausted
    /// by other threads (issue).
    WidthLimited,
}

/// Number of [`StallCause`] variants (attribution table width).
pub const STALL_CAUSES: usize = 14;

impl StallCause {
    /// All causes, in counter-index order.
    pub const ALL: [StallCause; STALL_CAUSES] = [
        StallCause::Progress,
        StallCause::Empty,
        StallCause::NotReady,
        StallCause::RobFull,
        StallCause::IqFull,
        StallCause::LsqFull,
        StallCause::ShelfFull,
        StallCause::NoRename,
        StallCause::Barrier,
        StallCause::ShelfHeadBlocked,
        StallCause::NoMshr,
        StallCause::FuBusy,
        StallCause::DataWait,
        StallCause::WidthLimited,
    ];

    /// Stable snake_case name used by the exporters and summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            StallCause::Progress => "progress",
            StallCause::Empty => "empty",
            StallCause::NotReady => "not_ready",
            StallCause::RobFull => "rob_full",
            StallCause::IqFull => "iq_full",
            StallCause::LsqFull => "lsq_full",
            StallCause::ShelfFull => "shelf_full",
            StallCause::NoRename => "no_rename",
            StallCause::Barrier => "barrier",
            StallCause::ShelfHeadBlocked => "shelf_head_blocked",
            StallCause::NoMshr => "no_mshr",
            StallCause::FuBusy => "fu_busy",
            StallCause::DataWait => "data_wait",
            StallCause::WidthLimited => "width_limited",
        }
    }
}

/// One per-cycle occupancy sample across all threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OccupancySample {
    /// Cycle the sample was taken.
    pub cycle: u64,
    /// ROB entries in use (all threads).
    pub rob: u32,
    /// Shared IQ entries in use.
    pub iq: u32,
    /// LQ entries in use (all threads).
    pub lq: u32,
    /// SQ entries in use (all threads).
    pub sq: u32,
    /// Shelf entries in use (all threads).
    pub shelf: u32,
    /// Physical registers in use.
    pub prf: u32,
    /// Fetch-to-dispatch pipe occupancy (all threads).
    pub frontend: u32,
}

/// The tracer: bounded lifecycle ring + bounded occupancy-sample ring +
/// per-thread stall attribution. See the crate docs for the event model
/// and drop policy.
#[derive(Clone, Debug)]
pub struct Tracer {
    threads: usize,
    window: usize,
    lifecycles: VecDeque<Lifecycle>,
    dropped: u64,
    sample_every: u64,
    samples: VecDeque<OccupancySample>,
    samples_dropped: u64,
    dispatch_stalls: Vec<[u64; STALL_CAUSES]>,
    issue_stalls: Vec<[u64; STALL_CAUSES]>,
    /// The most recent per-thread attribution on each side, retained so a
    /// skipped idle span can be attributed in bulk (the span repeats the
    /// probed cycle exactly, including its stall causes).
    last_dispatch: Vec<StallCause>,
    last_issue: Vec<StallCause>,
}

impl Tracer {
    /// A tracer for `threads` hardware threads keeping the most recent
    /// `window` lifecycle records and `window` occupancy samples (one
    /// sample per cycle by default; see [`Tracer::with_sampling`]).
    ///
    /// `threads` is clamped to [`MAX_TRACE_THREADS`]; `window` to ≥ 1.
    pub fn new(threads: usize, window: usize) -> Self {
        let threads = threads.min(MAX_TRACE_THREADS);
        let window = window.max(1);
        Tracer {
            threads,
            window,
            lifecycles: VecDeque::with_capacity(window),
            dropped: 0,
            sample_every: 1,
            samples: VecDeque::with_capacity(window),
            samples_dropped: 0,
            dispatch_stalls: vec![[0; STALL_CAUSES]; threads],
            issue_stalls: vec![[0; STALL_CAUSES]; threads],
            last_dispatch: vec![StallCause::Empty; threads],
            last_issue: vec![StallCause::Empty; threads],
        }
    }

    /// Sets the occupancy sampling period: one sample every `every` cycles
    /// (clamped to ≥ 1). Longer periods stretch the bounded sample ring
    /// over a longer run.
    pub fn with_sampling(mut self, every: u64) -> Self {
        self.sample_every = every.max(1);
        self
    }

    /// The number of hardware threads the attribution tables cover.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Clears all retained records, drop counters, and attribution tallies
    /// (e.g. at a warm-up/measurement boundary) while keeping the window
    /// and sampling configuration.
    pub fn reset(&mut self) {
        self.lifecycles.clear();
        self.dropped = 0;
        self.samples.clear();
        self.samples_dropped = 0;
        for row in &mut self.dispatch_stalls {
            *row = [0; STALL_CAUSES];
        }
        for row in &mut self.issue_stalls {
            *row = [0; STALL_CAUSES];
        }
        self.last_dispatch.fill(StallCause::Empty);
        self.last_issue.fill(StallCause::Empty);
    }

    /// The lifecycle/sample ring capacity.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Records an instruction's end-of-life lifecycle. Evicts the oldest
    /// record when the ring is full (drop policy in the crate docs).
    pub fn record(&mut self, lc: Lifecycle) {
        if self.lifecycles.len() == self.window {
            self.lifecycles.pop_front();
            self.dropped += 1;
        }
        self.lifecycles.push_back(lc);
    }

    /// Whether `cycle` falls on the sampling grid.
    #[inline]
    pub fn wants_sample(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.sample_every)
    }

    /// Records an occupancy sample (call on sampling-grid cycles; see
    /// [`Tracer::wants_sample`]). Evicts the oldest sample when full.
    pub fn sample(&mut self, s: OccupancySample) {
        if self.samples.len() == self.window {
            self.samples.pop_front();
            self.samples_dropped += 1;
        }
        self.samples.push_back(s);
    }

    /// Tallies this cycle's dispatch-side attribution for `thread`.
    #[inline]
    pub fn attribute_dispatch(&mut self, thread: usize, cause: StallCause) {
        if let Some(row) = self.dispatch_stalls.get_mut(thread) {
            row[cause as usize] += 1;
            self.last_dispatch[thread] = cause;
        }
    }

    /// Tallies this cycle's issue-side attribution for `thread`.
    #[inline]
    pub fn attribute_issue(&mut self, thread: usize, cause: StallCause) {
        if let Some(row) = self.issue_stalls.get_mut(thread) {
            row[cause as usize] += 1;
            self.last_issue[thread] = cause;
        }
    }

    /// Re-applies the most recent per-thread attribution (both sides) `k`
    /// more times. The skip engine calls this when it fast-forwards an
    /// idle span: the span repeats the probed cycle exactly, so every
    /// skipped cycle carries the probe's stall causes, and the invariant
    /// that each thread's tallies sum to the driven cycle count holds.
    pub fn attribute_span(&mut self, k: u64) {
        for (t, row) in self.dispatch_stalls.iter_mut().enumerate() {
            row[self.last_dispatch[t] as usize] += k;
        }
        for (t, row) in self.issue_stalls.iter_mut().enumerate() {
            row[self.last_issue[t] as usize] += k;
        }
    }

    /// The occupancy sampling period (cycles between samples).
    pub fn sample_period(&self) -> u64 {
        self.sample_every
    }

    /// The retained lifecycle records, oldest first.
    pub fn lifecycles(&self) -> impl Iterator<Item = &Lifecycle> {
        self.lifecycles.iter()
    }

    /// Lifecycle records evicted by the drop policy.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained occupancy samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &OccupancySample> {
        self.samples.iter()
    }

    /// Occupancy samples evicted by the drop policy.
    pub fn samples_dropped(&self) -> u64 {
        self.samples_dropped
    }

    /// Dispatch-side attribution counters for `thread`, indexed by
    /// `StallCause as usize`.
    pub fn dispatch_stalls(&self, thread: usize) -> &[u64; STALL_CAUSES] {
        &self.dispatch_stalls[thread]
    }

    /// Issue-side attribution counters for `thread`, indexed by
    /// `StallCause as usize`.
    pub fn issue_stalls(&self, thread: usize) -> &[u64; STALL_CAUSES] {
        &self.issue_stalls[thread]
    }

    /// Exports everything as JSONL: one `meta` line, then `inst` lines
    /// (oldest first), `occ` lines (oldest first), and one `stalls` line
    /// per thread per side. Deterministic: identical tracer state yields
    /// byte-identical output.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::with_capacity(128 * (self.lifecycles.len() + self.samples.len()));
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"threads\":{},\"window\":{},\"dropped\":{},\"samples_dropped\":{},\"sample_every\":{}}}",
            self.threads, self.window, self.dropped, self.samples_dropped, self.sample_every
        );
        for lc in &self.lifecycles {
            Self::write_inst_line(&mut out, lc);
        }
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{{\"type\":\"occ\",\"cycle\":{},\"rob\":{},\"iq\":{},\"lq\":{},\"sq\":{},\"shelf\":{},\"prf\":{},\"frontend\":{}}}",
                s.cycle, s.rob, s.iq, s.lq, s.sq, s.shelf, s.prf, s.frontend
            );
        }
        for (side, table) in [
            ("dispatch", &self.dispatch_stalls),
            ("issue", &self.issue_stalls),
        ] {
            for (t, row) in table.iter().enumerate() {
                let _ = write!(
                    out,
                    "{{\"type\":\"stalls\",\"side\":\"{side}\",\"thread\":{t}"
                );
                for cause in StallCause::ALL {
                    let _ = write!(out, ",\"{}\":{}", cause.as_str(), row[cause as usize]);
                }
                out.push_str("}\n");
            }
        }
        out
    }

    /// One `{"type":"inst",...}` JSONL line for `lc` (shared by the full
    /// export and the divergence-window export; byte-deterministic).
    fn write_inst_line(out: &mut String, lc: &Lifecycle) {
        let _ = write!(
            out,
            "{{\"type\":\"inst\",\"thread\":{},\"seq\":{},\"pc\":\"{:#x}\",\"op\":\"{}\",\"queue\":\"{}\",\"fetch\":{},\"dispatch\":{},",
            lc.thread, lc.seq, lc.pc, lc.op, lc.queue.as_str(), lc.fetch, lc.dispatch
        );
        match lc.issue {
            Some(c) => {
                let _ = write!(out, "\"issue\":{c},");
            }
            None => out.push_str("\"issue\":null,"),
        }
        match lc.writeback {
            Some(c) => {
                let _ = write!(out, "\"writeback\":{c},");
            }
            None => out.push_str("\"writeback\":null,"),
        }
        let _ = writeln!(
            out,
            "\"end\":{},\"end_kind\":\"{}\"}}",
            lc.end,
            lc.end_kind.as_str()
        );
    }

    /// Exports only the lifecycles of `thread` whose sequence numbers fall
    /// within `radius` of `seq`, as JSONL (a window meta line followed by
    /// `inst` lines in retention order). Used by the differential
    /// validation harness to dump the pipeline context around the first
    /// divergent instruction; byte-deterministic like [`Self::export_jsonl`].
    pub fn export_window_jsonl(&self, thread: u8, seq: u64, radius: u64) -> String {
        let lo = seq.saturating_sub(radius);
        let hi = seq.saturating_add(radius);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"window\",\"thread\":{thread},\"seq\":{seq},\"lo\":{lo},\"hi\":{hi},\"dropped\":{}}}",
            self.dropped
        );
        for lc in &self.lifecycles {
            if lc.thread == thread && lc.seq >= lo && lc.seq <= hi {
                Self::write_inst_line(&mut out, lc);
            }
        }
        out
    }

    /// Exports a Chrome trace-event JSON document loadable in Perfetto or
    /// `chrome://tracing`. Timestamps are simulator cycles. Each retained
    /// lifecycle becomes one complete ("X") slice on `pid = thread`, laned
    /// by `tid = seq % 64` so concurrent in-flight instructions render on
    /// separate rows; per-stage cycles ride in `args`. Occupancy samples
    /// become counter ("C") events on pid 0. Deterministic output.
    pub fn export_chrome(&self) -> String {
        let mut out = String::with_capacity(192 * (self.lifecycles.len() + self.samples.len()));
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
            out.push_str("\n  ");
        };
        for t in 0..self.threads {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{t},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"thread {t}\"}}}}"
            );
        }
        for lc in &self.lifecycles {
            sep(&mut out);
            let dur = lc.end.saturating_sub(lc.fetch).max(1);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"{}@{:#x}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"seq\":{},\"fetch\":{},\"dispatch\":{},\"issue\":{},\"writeback\":{},\"end\":{},\"end_kind\":\"{}\"}}}}",
                lc.op,
                lc.pc,
                lc.queue.as_str(),
                lc.thread,
                lc.seq % 64,
                lc.fetch,
                dur,
                lc.seq,
                lc.fetch,
                lc.dispatch,
                lc.issue.map_or(-1i64, |c| c as i64),
                lc.writeback.map_or(-1i64, |c| c as i64),
                lc.end,
                lc.end_kind.as_str()
            );
        }
        for s in &self.samples {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"name\":\"occupancy\",\"pid\":0,\"tid\":0,\"ts\":{},\"args\":{{\"rob\":{},\"iq\":{},\"lq\":{},\"sq\":{},\"shelf\":{},\"prf\":{},\"frontend\":{}}}}}",
                s.cycle, s.rob, s.iq, s.lq, s.sq, s.shelf, s.prf, s.frontend
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Audits the accounting invariants a cycle-exact replay (tick-by-tick
    /// or skip-engine fast-forward, whole-core or per-thread partial) must
    /// preserve, given that `cycles` driver cycles were attributed:
    ///
    /// 1. Every retained occupancy sample lies on the sampling grid
    ///    (`cycle % sample_every == 0`) — a misaligned span replay would
    ///    emit off-grid samples.
    /// 2. Per thread and per side, the stall tallies sum exactly to
    ///    `cycles` — one attribution per thread per cycle, no cycle lost
    ///    or double-counted by a skipped or reduced span.
    ///
    /// Returns the first violation as a human-readable message.
    pub fn check_invariants(&self, cycles: u64) -> Result<(), String> {
        for s in &self.samples {
            if !s.cycle.is_multiple_of(self.sample_every) {
                return Err(format!(
                    "occupancy sample at cycle {} is off the {}-cycle grid",
                    s.cycle, self.sample_every
                ));
            }
        }
        for (side, table) in [
            ("dispatch", &self.dispatch_stalls),
            ("issue", &self.issue_stalls),
        ] {
            for (t, row) in table.iter().enumerate() {
                let total: u64 = row.iter().sum();
                if total != cycles {
                    return Err(format!(
                        "thread {t} {side} tallies sum to {total}, expected {cycles}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// A human-readable per-thread stall-attribution summary (percent of
    /// attributed cycles per cause, causes with zero tallies omitted).
    pub fn stall_summary(&self) -> String {
        let mut out = String::new();
        for (side, table) in [
            ("dispatch", &self.dispatch_stalls),
            ("issue", &self.issue_stalls),
        ] {
            for (t, row) in table.iter().enumerate() {
                let total: u64 = row.iter().sum();
                if total == 0 {
                    continue;
                }
                let _ = write!(out, "T{t} {side:<8}");
                for cause in StallCause::ALL {
                    let n = row[cause as usize];
                    if n == 0 {
                        continue;
                    }
                    let _ = write!(
                        out,
                        "  {} {:.1}%",
                        cause.as_str(),
                        100.0 * n as f64 / total as f64
                    );
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Escapes `s` for use inside a JSON string literal: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` use their short forms, and every
/// other control character becomes `\u00XX`. Campaign journals and
/// reports, validation reports and analysis diagnostics all escape through
/// it, so their bytes agree.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_covers_quotes_backslashes_and_control_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_escape("a\rb"), "a\\rb");
        assert_eq!(json_escape("a\tb"), "a\\tb");
        assert_eq!(json_escape("a\u{1}b\u{1f}"), "a\\u0001b\\u001f");
        assert_eq!(json_escape("é ✓"), "é ✓");
    }

    fn lc(seq: u64, end: u64) -> Lifecycle {
        Lifecycle {
            thread: 0,
            seq,
            pc: 0x40_0000 + 4 * seq,
            op: OpClass::IntAlu,
            queue: QueueKind::Iq,
            fetch: end.saturating_sub(8),
            dispatch: end.saturating_sub(2),
            issue: Some(end.saturating_sub(1)),
            writeback: Some(end),
            end,
            end_kind: EndKind::Commit,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut tr = Tracer::new(1, 2);
        tr.record(lc(0, 10));
        tr.record(lc(1, 11));
        tr.record(lc(2, 12));
        assert_eq!(tr.dropped(), 1);
        let seqs: Vec<u64> = tr.lifecycles().map(|l| l.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn sample_ring_is_bounded() {
        let mut tr = Tracer::new(1, 3);
        for c in 0..5 {
            tr.sample(OccupancySample {
                cycle: c,
                ..Default::default()
            });
        }
        assert_eq!(tr.samples_dropped(), 2);
        assert_eq!(tr.samples().next().unwrap().cycle, 2);
    }

    #[test]
    fn sampling_grid_respects_period() {
        let tr = Tracer::new(1, 4).with_sampling(8);
        assert!(tr.wants_sample(0));
        assert!(!tr.wants_sample(7));
        assert!(tr.wants_sample(16));
    }

    #[test]
    fn attribution_tallies_by_cause() {
        let mut tr = Tracer::new(2, 4);
        tr.attribute_dispatch(0, StallCause::IqFull);
        tr.attribute_dispatch(0, StallCause::IqFull);
        tr.attribute_dispatch(1, StallCause::Progress);
        tr.attribute_issue(1, StallCause::DataWait);
        assert_eq!(tr.dispatch_stalls(0)[StallCause::IqFull as usize], 2);
        assert_eq!(tr.dispatch_stalls(1)[StallCause::Progress as usize], 1);
        assert_eq!(tr.issue_stalls(1)[StallCause::DataWait as usize], 1);
        // Out-of-range threads are ignored, not a panic.
        tr.attribute_dispatch(9, StallCause::Empty);
    }

    #[test]
    fn invariant_check_accepts_exact_replay_and_rejects_misalignment() {
        // A faithful replay: 3 attributed cycles per thread per side (one
        // per-cycle tally plus a 2-cycle span), samples on the 8-grid.
        let mut tr = Tracer::new(2, 8).with_sampling(8);
        for t in 0..2 {
            tr.attribute_dispatch(t, StallCause::Progress);
            tr.attribute_issue(t, StallCause::DataWait);
        }
        tr.attribute_span(2);
        tr.sample(OccupancySample {
            cycle: 16,
            ..Default::default()
        });
        assert_eq!(tr.check_invariants(3), Ok(()));

        // A span replayed at the wrong length breaks the sum invariant.
        assert!(tr
            .check_invariants(4)
            .unwrap_err()
            .contains("sum to 3, expected 4"));

        // A misaligned sample (e.g. a skip span sampling from the wrong
        // base cycle) breaks grid alignment.
        tr.sample(OccupancySample {
            cycle: 21,
            ..Default::default()
        });
        assert!(tr
            .check_invariants(3)
            .unwrap_err()
            .contains("off the 8-cycle grid"));
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let mut tr = Tracer::new(1, 4);
        tr.record(lc(0, 10));
        tr.record(Lifecycle {
            issue: None,
            writeback: None,
            end_kind: EndKind::Squash,
            ..lc(1, 12)
        });
        tr.sample(OccupancySample {
            cycle: 3,
            rob: 5,
            ..Default::default()
        });
        let out = tr.export_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        // meta + 2 inst + 1 occ + 2 stalls lines (1 thread x 2 sides).
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(lines[1].contains("\"issue\":9"));
        assert!(lines[2].contains("\"issue\":null"));
        assert!(lines[2].contains("\"end_kind\":\"squash\""));
        assert!(lines[3].contains("\"rob\":5"));
        for line in lines {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line: {line}"
            );
        }
    }

    #[test]
    fn window_export_filters_by_thread_and_seq_radius() {
        let mut tr = Tracer::new(2, 32);
        for s in 0..12 {
            tr.record(lc(s, 20 + s));
        }
        tr.record(Lifecycle {
            thread: 1,
            ..lc(6, 40)
        });
        let out = tr.export_window_jsonl(0, 6, 2);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"type\":\"window\""));
        assert!(lines[0].contains("\"lo\":4,\"hi\":8"));
        // Window meta + seqs 4..=8 of thread 0 only.
        assert_eq!(lines.len(), 6);
        for (line, seq) in lines[1..].iter().zip(4u64..) {
            assert!(line.contains(&format!("\"seq\":{seq}")), "bad line: {line}");
            assert!(line.contains("\"thread\":0"));
        }
        // Radius clamps at zero instead of underflowing.
        let low = tr.export_window_jsonl(0, 1, 5);
        assert!(low.lines().next().unwrap().contains("\"lo\":0"));
        // Deterministic.
        assert_eq!(out, tr.export_window_jsonl(0, 6, 2));
    }

    #[test]
    fn chrome_export_has_slices_and_counters() {
        let mut tr = Tracer::new(2, 4);
        tr.record(lc(7, 20));
        tr.sample(OccupancySample {
            cycle: 20,
            iq: 9,
            ..Default::default()
        });
        let out = tr.export_chrome();
        assert!(out.starts_with("{\"displayTimeUnit\""));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.contains("\"ph\":\"M\""));
        assert!(out.contains("int_alu@0x40001c"));
        assert!(out.trim_end().ends_with("]}"));
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let mut tr = Tracer::new(2, 8);
            for s in 0..10 {
                tr.record(lc(s, 10 + s));
                tr.sample(OccupancySample {
                    cycle: s,
                    rob: s as u32,
                    ..Default::default()
                });
            }
            tr.attribute_issue(1, StallCause::FuBusy);
            tr
        };
        assert_eq!(build().export_jsonl(), build().export_jsonl());
        assert_eq!(build().export_chrome(), build().export_chrome());
    }
}
