//! The Pareto-frontier report: the paper's Fig 13 trade-off view (STP vs
//! energy-delay vs area) computed over merged journal history.
//!
//! Every `(design, SMT width)` pair in the journal becomes one candidate
//! point: its STP is the geomean over mixes of per-run STP, its
//! energy-delay product is the geomean of the per-run EDP the energy model
//! journaled, and its area comes from [`shelfsim_energy::EnergyModel`] for
//! the resolved config. The frontier is the non-dominated set maximizing
//! STP while minimizing EDP and area.
//!
//! STP is Eyerman & Eeckhout's system throughput, Σ ST-CPI / MT-CPI over a
//! run's threads, and [`StpReferences`] is the one place it is computed
//! (the figure benches and examples call it too). Every design is
//! normalized by the same single-thread CPIs: each benchmark running alone
//! on [`STP_REFERENCE`]. A same-design reference would cancel any
//! microarchitectural speedup (a 1-thread STP would be exactly 1 for every
//! design). The references come from the sweep's implied T=1 axis (see
//! [`crate::SweepSpec::mix_plan`]) and use the thread-0 program seed, a
//! documented approximation (thread t of a mix runs a program seeded
//! `seed ^ t<<8`, the reference runs the `seed` build — same benchmark,
//! statistically identical profile).

use crate::journal::JournalEntry;
use shelfsim_stats::{geomean, stp};
use std::collections::{BTreeMap, HashMap};

/// The design whose single-thread CPIs normalize every STP.
pub const STP_REFERENCE: &str = "base64";

/// Single-thread CPI references: each benchmark's CPI running alone on
/// [`STP_REFERENCE`].
#[derive(Clone, Debug)]
pub struct StpReferences {
    cpi: HashMap<String, f64>,
}

impl StpReferences {
    /// Collects the references from every `ok` single-thread run of
    /// [`STP_REFERENCE`] among `entries`.
    pub fn from_entries<'a>(entries: impl IntoIterator<Item = &'a JournalEntry>) -> Self {
        let mut cpi = HashMap::new();
        for e in entries {
            if e.status == "ok" && e.threads == 1 && e.design == STP_REFERENCE {
                if let [c] = e.thread_cpis()[..] {
                    cpi.insert(e.mix.clone(), c);
                }
            }
        }
        StpReferences { cpi }
    }

    /// The STP of one run; `None` when the entry lacks per-thread CPIs or
    /// a benchmark of its mix has no reference.
    pub fn stp(&self, entry: &JournalEntry) -> Option<f64> {
        let mt = entry.thread_cpis();
        let st: Vec<f64> = entry
            .mix
            .split('+')
            .map(|b| self.cpi.get(b).copied())
            .collect::<Option<_>>()?;
        (mt.len() == entry.threads && st.len() == entry.threads).then(|| stp(&st, &mt))
    }
}

/// One aggregated `(design, threads)` candidate point.
#[derive(Clone, Debug)]
pub struct ParetoPoint {
    /// Design-point name.
    pub design: String,
    /// SMT width.
    pub threads: usize,
    /// Completed runs aggregated into the point.
    pub runs: usize,
    /// Geomean system throughput (higher is better).
    pub stp: f64,
    /// Geomean energy-delay product (lower is better).
    pub edp: f64,
    /// Core area in the energy model's arbitrary area units (lower is
    /// better; excludes L1, matching the paper's core-growth accounting —
    /// meaningful for comparisons between points, not as absolute mm²).
    pub area: f64,
    /// True when no other point dominates this one.
    pub on_frontier: bool,
}

/// The full Pareto report.
#[derive(Clone, Debug)]
pub struct ParetoReport {
    /// Candidate points, sorted by descending STP (frontier flags set).
    pub points: Vec<ParetoPoint>,
    /// Multi-thread `ok` runs that could not be scored (missing
    /// [`STP_REFERENCE`] single-thread reference, missing per-thread CPIs,
    /// or an unresolvable design) — honest accounting, never silently dropped.
    pub skipped: usize,
}

/// `a` dominates `b` when it is at least as good on every objective and
/// strictly better on at least one (STP maximized; EDP and area
/// minimized).
fn dominates(a: &ParetoPoint, b: &ParetoPoint) -> bool {
    let ge = a.stp >= b.stp && a.edp <= b.edp && a.area <= b.area;
    let strict = a.stp > b.stp || a.edp < b.edp || a.area < b.area;
    ge && strict
}

/// Marks the non-dominated set. O(n²) in the number of points, which is
/// designs × thread counts — tiny; the expensive part (per-run scoring)
/// is what [`pareto_report`] parallelizes.
fn mark_frontier(points: &mut [ParetoPoint]) {
    for i in 0..points.len() {
        points[i].on_frontier =
            !(0..points.len()).any(|j| j != i && dominates(&points[j], &points[i]));
    }
}

/// Scores one `(design, threads)` group: geomean STP and EDP over its
/// runs. Returns the point plus the number of runs it had to skip.
fn score_group(
    design: &str,
    threads: usize,
    runs: &[&JournalEntry],
    refs: &StpReferences,
) -> (Option<ParetoPoint>, usize) {
    let Some(cfg) = shelfsim_analyze::design_by_name(design, threads) else {
        return (None, runs.len());
    };
    let area = shelfsim_energy::EnergyModel::for_config(&cfg).core_area(false);
    let mut stps = Vec::with_capacity(runs.len());
    let mut edps = Vec::with_capacity(runs.len());
    let mut skipped = 0usize;
    for entry in runs {
        match refs.stp(entry) {
            Some(v) if entry.edp > 0.0 => {
                stps.push(v);
                edps.push(entry.edp);
            }
            _ => skipped += 1,
        }
    }
    if stps.is_empty() {
        return (None, skipped);
    }
    let point = ParetoPoint {
        design: design.to_owned(),
        threads,
        runs: stps.len(),
        stp: geomean(&stps),
        edp: geomean(&edps),
        area,
        on_frontier: false,
    };
    (Some(point), skipped)
}

/// Computes the Pareto report over merged journal history, scoring the
/// `(design, threads)` groups in parallel on up to `workers` threads.
pub fn pareto_report(entries: &BTreeMap<String, JournalEntry>, workers: usize) -> ParetoReport {
    let refs = StpReferences::from_entries(entries.values());

    // Group multi-thread completed runs by (design, threads).
    let mut groups: BTreeMap<(String, usize), Vec<&JournalEntry>> = BTreeMap::new();
    for e in entries.values() {
        if e.status == "ok" && e.threads >= 2 {
            groups
                .entry((e.design.clone(), e.threads))
                .or_default()
                .push(e);
        }
    }
    let groups: Vec<((String, usize), Vec<&JournalEntry>)> = groups.into_iter().collect();

    // Score groups in parallel: chunk the group list across workers.
    let workers = workers.clamp(1, groups.len().max(1));
    let chunk = groups.len().div_ceil(workers).max(1);
    let mut scored: Vec<(Option<ParetoPoint>, usize)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .chunks(chunk)
            .map(|slice| {
                let refs = &refs;
                scope.spawn(move || {
                    slice
                        .iter()
                        .map(|((design, threads), runs)| score_group(design, *threads, runs, refs))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            scored.extend(h.join().expect("pareto scorer"));
        }
    });

    let mut skipped = 0usize;
    let mut points = Vec::new();
    for (point, s) in scored {
        skipped += s;
        if let Some(p) = point {
            points.push(p);
        }
    }
    points.sort_by(|a, b| {
        b.stp
            .partial_cmp(&a.stp)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.design.cmp(&b.design))
            .then_with(|| a.threads.cmp(&b.threads))
    });
    mark_frontier(&mut points);
    ParetoReport { points, skipped }
}

impl ParetoReport {
    /// Points on the frontier, in report order.
    pub fn frontier(&self) -> Vec<&ParetoPoint> {
        self.points.iter().filter(|p| p.on_frontier).collect()
    }

    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "pareto: {} design points, {} on frontier, {} runs skipped\n",
            self.points.len(),
            self.frontier().len(),
            self.skipped
        );
        for p in &self.points {
            out.push_str(&format!(
                "  [{}] {:<12} t={} stp={:.4} edp={:.4} area={:.0}au ({} runs)\n",
                if p.on_frontier { '*' } else { ' ' },
                p.design,
                p.threads,
                p.stp,
                p.edp,
                p.area,
                p.runs
            ));
        }
        out
    }

    /// Flat-JSON rendering (hand-rolled; the workspace builds offline
    /// with no serde).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                concat!(
                    r#"    {{"design":"{}","threads":{},"runs":{},"stp":{:.6},"#,
                    r#""edp":{:.6},"area":{:.4},"on_frontier":{}}}{}"#,
                    "\n"
                ),
                shelfsim_core::json_escape(&p.design),
                p.threads,
                p.runs,
                p.stp,
                p.edp,
                p.area,
                p.on_frontier,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!("  ],\n  \"skipped\": {}\n}}\n", self.skipped));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(design: &str, mix: &str, tcpi: &str, edp: f64) -> JournalEntry {
        let threads = mix.split('+').count();
        JournalEntry {
            key: format!("{design}-{mix}"),
            label: format!("{design} {mix}"),
            design: design.to_owned(),
            threads,
            seed: 7,
            status: "ok".to_owned(),
            attempts: 1,
            ipc: 1.0,
            cycles: 1_000,
            committed: 1_000,
            completion: "fixed-window".to_owned(),
            error: String::new(),
            message: String::new(),
            validated: String::new(),
            mix: mix.to_owned(),
            tcpi: tcpi.to_owned(),
            epi: 0.5,
            edp,
        }
    }

    fn history() -> BTreeMap<String, JournalEntry> {
        let mut m = BTreeMap::new();
        for e in [
            // ST runs on both designs; only base64's are STP references.
            entry("base64", "gcc", "2.000000", 0.9),
            entry("base64", "mcf", "4.000000", 0.9),
            entry("shelf-opt", "gcc", "1.800000", 0.8),
            entry("shelf-opt", "mcf", "3.600000", 0.8),
            // 2-thread runs: shelf-opt has better STP and EDP.
            entry("base64", "gcc+mcf", "3.000000,6.000000", 1.2),
            entry("shelf-opt", "gcc+mcf", "2.500000,5.000000", 1.0),
        ] {
            m.insert(e.key.clone(), e);
        }
        m
    }

    #[test]
    fn stp_uses_base64_st_references() {
        let report = pareto_report(&history(), 2);
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.skipped, 0);
        let shelf = report
            .points
            .iter()
            .find(|p| p.design == "shelf-opt")
            .unwrap();
        // STP = 2.0/2.5 + 4.0/5.0 = 1.6 (shelf-opt's own references would
        // give 1.8/2.5 + 3.6/5.0 = 1.44).
        assert!((shelf.stp - 1.6).abs() < 1e-9, "stp = {}", shelf.stp);
        let base = report.points.iter().find(|p| p.design == "base64").unwrap();
        assert!((base.stp - (2.0 / 3.0 + 4.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn runs_without_references_are_counted_skipped() {
        let mut h = history();
        let orphan = entry("base64", "gcc+lbm", "3.000000,6.000000", 1.2);
        h.insert(orphan.key.clone(), orphan);
        let report = pareto_report(&h, 1);
        assert_eq!(report.skipped, 1, "no lbm ST reference on base64");

        // A design's own T=1 run is not a reference.
        let mut h = history();
        for e in [
            entry("shelf-opt", "lbm", "5.000000", 0.8),
            entry("shelf-opt", "gcc+lbm", "3.000000,6.000000", 1.2),
        ] {
            h.insert(e.key.clone(), e);
        }
        let report = pareto_report(&h, 1);
        assert_eq!(report.skipped, 1, "no lbm ST reference on base64");
    }

    #[test]
    fn frontier_matches_brute_force() {
        // Synthetic points exercising every dominance direction, including
        // ties on individual objectives.
        let mk = |design: &str, stp: f64, edp: f64, area: f64| ParetoPoint {
            design: design.to_owned(),
            threads: 2,
            runs: 1,
            stp,
            edp,
            area,
            on_frontier: false,
        };
        let mut points = vec![
            mk("a", 2.0, 1.0, 10.0), // frontier
            mk("b", 1.5, 0.5, 12.0), // frontier (best edp)
            mk("c", 1.4, 0.6, 12.5), // dominated by b
            mk("d", 2.0, 1.0, 9.0),  // frontier, dominates a on area
            mk("e", 2.0, 1.2, 10.0), // dominated by a (worse edp, ties rest)
            mk("f", 0.5, 2.0, 20.0), // dominated by everything
            mk("g", 2.5, 3.0, 30.0), // frontier (best stp)
        ];
        mark_frontier(&mut points);
        // Brute force: a point is on the frontier iff no other point is
        // ≥ on all objectives and > on at least one.
        for i in 0..points.len() {
            let brute = !(0..points.len()).any(|j| {
                j != i
                    && points[j].stp >= points[i].stp
                    && points[j].edp <= points[i].edp
                    && points[j].area <= points[i].area
                    && (points[j].stp > points[i].stp
                        || points[j].edp < points[i].edp
                        || points[j].area < points[i].area)
            });
            assert_eq!(
                points[i].on_frontier, brute,
                "frontier mismatch at {}",
                points[i].design
            );
        }
        let names: Vec<&str> = points
            .iter()
            .filter(|p| p.on_frontier)
            .map(|p| p.design.as_str())
            .collect();
        assert_eq!(names, vec!["b", "d", "g"]);
        // `a` is dominated by `d` (equal stp/edp, smaller area).
        assert!(!points.iter().find(|p| p.design == "a").unwrap().on_frontier);
    }

    #[test]
    fn report_renders_text_and_json() {
        let report = pareto_report(&history(), 4);
        let text = report.render_text();
        assert!(text.contains("pareto: 2 design points"), "{text}");
        assert!(text.contains("[*]"), "{text}");
        let json = report.render_json();
        assert!(json.contains("\"on_frontier\":true"), "{json}");
    }
}
