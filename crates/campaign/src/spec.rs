//! Campaign and run specifications: the job matrix and its stable keys.

use crate::fault::FaultPlan;
use std::path::PathBuf;

/// FNV-1a over a byte string (the same construction as
/// [`shelfsim_core::CoreConfig::stable_hash`]).
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One run of the campaign matrix: a design point, a benchmark mix (one
/// name per hardware thread), and the measurement parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// Position in the campaign matrix (the [`FaultPlan`] keys on it).
    pub index: usize,
    /// Design-point name (resolved via
    /// [`shelfsim_analyze::design_by_name`]).
    pub design: String,
    /// Benchmark mix, one name per thread.
    pub mix: Vec<String>,
    /// Workload seed.
    pub seed: u64,
    /// Warm-up cycles before measurement.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Structural config overrides (`key`, `value`) applied on top of the
    /// design point, in order — the vocabulary of
    /// [`shelfsim_analyze::apply_override`] (the CLI `--override` flag).
    pub overrides: Vec<(String, String)>,
}

impl RunSpec {
    /// Human-readable label, e.g. `shelf-opt gcc+mcf` (overrides, when
    /// present, are appended as `[key=value,…]`).
    pub fn label(&self) -> String {
        let mix = self.mix.join("+");
        format!("{} {mix}{}", self.design, self.override_suffix())
    }

    /// The design point the run measures: the design name plus its
    /// override set, e.g. `shelf-opt [shelf=16]`.
    pub fn design_point(&self) -> String {
        format!("{}{}", self.design, self.override_suffix())
    }

    /// ` [key=value,…]`, or empty without overrides.
    fn override_suffix(&self) -> String {
        if self.overrides.is_empty() {
            return String::new();
        }
        let ovs: Vec<String> = self
            .overrides
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(" [{}]", ovs.join(","))
    }

    /// Resolves the design name plus overrides into the exact
    /// [`shelfsim_core::CoreConfig`] the run would simulate.
    ///
    /// # Errors
    ///
    /// Returns a description of the unknown design or bad override.
    pub fn resolved_config(&self) -> Result<shelfsim_core::CoreConfig, String> {
        let mut cfg = shelfsim_analyze::design_by_name(&self.design, self.mix.len().max(1))
            .ok_or_else(|| {
                format!(
                    "unknown design `{}` (expected one of: {})",
                    self.design,
                    shelfsim_analyze::DESIGN_NAMES.join(", ")
                )
            })?;
        for (k, v) in &self.overrides {
            shelfsim_analyze::apply_override(&mut cfg, k, v)?;
        }
        Ok(cfg)
    }

    /// Stable journal key: a hex fingerprint of the resolved configuration
    /// (design plus overrides, when they resolve), the mix, the seed, and
    /// the measurement parameters. Two runs with the same key would produce
    /// identical results, so a journaled key means the run can be skipped
    /// on resume. Specs without overrides keep the pre-override key format,
    /// so existing journals stay resumable.
    ///
    /// The fingerprint is [`shelfsim_core::CoreConfig::stable_hash`], taken
    /// over the configuration's `Debug` rendering: removing, renaming or
    /// reordering a `CoreConfig` or `HierarchyConfig` field moves every
    /// key, so old journals stop resuming and perfbench's recorded
    /// `sweep-short` journal goldens must be re-recorded.
    pub fn key(&self) -> String {
        let cfg_hash = self.resolved_config().map(|c| c.stable_hash()).unwrap_or(0);
        let mut canonical = format!(
            "{}|{:016x}|{}|{}|{}|{}",
            self.design,
            cfg_hash,
            self.mix.join("+"),
            self.seed,
            self.warmup,
            self.measure
        );
        for (k, v) in &self.overrides {
            canonical.push_str(&format!("|{k}={v}"));
        }
        format!("{:016x}", fnv1a(canonical.bytes()))
    }
}

/// Full campaign configuration: the job matrix plus the resilience knobs.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// The runs to execute.
    pub runs: Vec<RunSpec>,
    /// Forward-progress watchdog window in cycles (`None` disables it).
    pub watchdog: Option<u64>,
    /// Attempts per run before quarantine (≥ 1; attempt 2 onwards runs in
    /// the diagnostics tier).
    pub max_attempts: u32,
    /// Worker threads executing runs concurrently.
    pub workers: usize,
    /// Journal directory (`shard-NNN.jsonl`, one per worker); when set,
    /// each worker appends outcomes to its own shard lock-free as they
    /// complete, and the next invocation skips every run found in the
    /// deterministically merged view of all `*.jsonl` files there.
    pub journal_dir: Option<PathBuf>,
    /// Deterministic fault injection plan (empty = no faults).
    pub faults: FaultPlan,
    /// When set, diagnostics-tier attempts (attempt ≥ 2) run with the
    /// lifecycle tracer enabled and a watchdog-diagnosed failure dumps its
    /// JSONL trace here as `<key>-attempt<N>.jsonl`. Panics unwind past the
    /// simulator, so only deadlock/livelock failures can leave a trace.
    pub trace_dir: Option<PathBuf>,
    /// Suppress the default panic hook's backtrace spew while isolated runs
    /// convert panics into structured failures.
    pub quiet_panics: bool,
    /// Run the static-analysis pre-flight (config lint + program lint +
    /// resource adequacy) over every queued run before simulating; runs
    /// whose analysis reports errors are rejected without spending a cycle
    /// and journaled with an `analysis-rejected` taxonomy entry.
    pub preflight: bool,
    /// Run the differential validation tier: every attempt first
    /// lockstep-validates its exact config and programs against the
    /// in-order functional reference; a divergence quarantines the run
    /// immediately (deterministic — no retry) with a `divergence` taxonomy
    /// entry, and clean runs journal `validated: clean`.
    pub validate: bool,
}

impl CampaignSpec {
    /// A campaign over `runs` with resilient defaults: a watchdog window of
    /// 100k cycles, 3 attempts per run, 2 workers, no journal, no faults.
    pub fn new(runs: Vec<RunSpec>) -> Self {
        CampaignSpec {
            runs,
            watchdog: Some(100_000),
            max_attempts: 3,
            workers: 2,
            journal_dir: None,
            faults: FaultPlan::new(),
            trace_dir: None,
            quiet_panics: true,
            preflight: true,
            validate: false,
        }
    }

    /// Enables or disables the static-analysis pre-flight stage.
    pub fn with_preflight(mut self, enabled: bool) -> Self {
        self.preflight = enabled;
        self
    }

    /// Enables or disables the differential validation tier.
    pub fn with_validate(mut self, enabled: bool) -> Self {
        self.validate = enabled;
        self
    }

    /// Sets the watchdog window (cycles); `None` disables the watchdog.
    pub fn with_watchdog(mut self, window: Option<u64>) -> Self {
        self.watchdog = window;
        self
    }

    /// Sets the attempt budget per run (clamped to ≥ 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the worker-thread count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the sharded-journal directory (one shard file per worker).
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Sets the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the directory where diagnostics-tier failures dump lifecycle
    /// traces (created on demand).
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Builds the full design × mix matrix in deterministic order (designs
    /// outer, mixes inner), assigning each run its matrix index.
    pub fn matrix(
        designs: &[String],
        mixes: &[Vec<String>],
        seed: u64,
        warmup: u64,
        measure: u64,
    ) -> Vec<RunSpec> {
        let mut runs = Vec::with_capacity(designs.len() * mixes.len());
        for design in designs {
            for mix in mixes {
                runs.push(RunSpec {
                    index: runs.len(),
                    design: design.clone(),
                    mix: mix.clone(),
                    seed,
                    warmup,
                    measure,
                    overrides: Vec::new(),
                });
            }
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RunSpec {
        RunSpec {
            index: 0,
            design: "base64".to_owned(),
            mix: vec!["gcc".to_owned(), "mcf".to_owned()],
            seed: 7,
            warmup: 100,
            measure: 1_000,
            overrides: Vec::new(),
        }
    }

    #[test]
    fn key_is_stable_and_parameter_sensitive() {
        let a = spec();
        assert_eq!(a.key(), spec().key(), "same spec, same key");
        let mut b = spec();
        b.seed = 8;
        assert_ne!(a.key(), b.key(), "seed changes the key");
        let mut c = spec();
        c.design = "base128".to_owned();
        assert_ne!(a.key(), c.key(), "design changes the key");
        let mut d = spec();
        d.measure = 2_000;
        assert_ne!(a.key(), d.key(), "measurement budget changes the key");
        // The index is presentation-only: it must NOT affect the key, or
        // resuming a reordered campaign would re-run completed work.
        let mut e = spec();
        e.index = 99;
        assert_eq!(a.key(), e.key());
    }

    #[test]
    fn matrix_enumerates_designs_times_mixes() {
        let runs = CampaignSpec::matrix(
            &["base64".to_owned(), "shelf-opt".to_owned()],
            &[vec!["gcc".to_owned()], vec!["mcf".to_owned()]],
            7,
            100,
            1_000,
        );
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].design, "base64");
        assert_eq!(runs[3].design, "shelf-opt");
        assert_eq!(
            runs.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        let keys: std::collections::BTreeSet<String> = runs.iter().map(|r| r.key()).collect();
        assert_eq!(keys.len(), 4, "all matrix keys distinct");
    }

    #[test]
    fn overrides_resolve_label_and_rekey() {
        let mut s = spec();
        s.overrides = vec![("shelf".to_owned(), "8".to_owned())];
        assert_ne!(s.key(), spec().key(), "overrides change the key");
        assert!(s.label().contains("[shelf=8]"), "{}", s.label());
        let base = spec().resolved_config().expect("base64 resolves");
        let cfg = s.resolved_config().expect("override applies");
        assert_eq!(cfg.shelf_entries, 8);
        assert_eq!(base.shelf_entries, 0);
        s.overrides = vec![("bogus".to_owned(), "1".to_owned())];
        assert!(s.resolved_config().is_err());
    }
}
