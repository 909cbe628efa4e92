//! The config-hash result cache: dedupes requested runs against all merged
//! journal history before any cycle is simulated.
//!
//! [`crate::RunSpec::key`] already fingerprints everything that determines
//! a run's result (resolved config hash, mix, seed, measurement budget,
//! overrides), and the simulator is deterministic — so a journaled `ok`
//! entry for a key *is* the run's result. Admission splits a requested
//! matrix into cache hits (restored without simulating) and misses (queued
//! for the pool). History is a journal directory's shards, merged by the
//! same rule [`ShardedJournal::load_merged`] uses.

use crate::journal::{merge_journal_files, JournalEntry, ShardedJournal};
use crate::spec::RunSpec;
use std::collections::BTreeMap;
use std::path::Path;

/// Merged journal history keyed by run fingerprint.
#[derive(Clone, Debug, Default)]
pub struct ResultCache {
    entries: BTreeMap<String, JournalEntry>,
}

/// One matrix's admission verdict: which runs the cache satisfies and
/// which must simulate.
#[derive(Clone, Debug)]
pub struct Admission {
    /// `(run index, cached entry)` for every hit.
    pub hits: Vec<(usize, JournalEntry)>,
    /// Run indices that must execute.
    pub misses: Vec<usize>,
}

impl Admission {
    /// Cache-hit fraction of the requested matrix (1.0 for an empty one —
    /// nothing needs simulating).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.len() + self.misses.len();
        if total == 0 {
            return 1.0;
        }
        self.hits.len() as f64 / total as f64
    }
}

impl ResultCache {
    /// Builds the cache from merged history: every shard of `sharded`
    /// plus, when given, one `extra` journal file merged as one more shard
    /// (after the directory's own). Within a file the last entry per key
    /// wins; across files the better status wins (`ok` > `rejected` >
    /// `quarantined`).
    ///
    /// # Errors
    ///
    /// Propagates journal I/O errors.
    pub fn load(sharded: Option<&ShardedJournal>, extra: Option<&Path>) -> std::io::Result<Self> {
        let mut files = sharded
            .map(ShardedJournal::shard_files)
            .transpose()?
            .unwrap_or_default();
        files.extend(extra.map(Path::to_path_buf));
        Ok(ResultCache {
            entries: merge_journal_files(files)?,
        })
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds no history.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached entry for a key, if any.
    pub fn get(&self, key: &str) -> Option<&JournalEntry> {
        self.entries.get(key)
    }

    /// Splits a requested matrix into hits and misses. Only final entries
    /// count as hits (every journaled status is final — `ok`,
    /// `quarantined`, and `rejected` all resume without re-execution).
    pub fn admit(&self, runs: &[RunSpec]) -> Admission {
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for (i, run) in runs.iter().enumerate() {
            match self.entries.get(&run.key()) {
                Some(entry) => hits.push((i, entry.clone())),
                None => misses.push(i),
            }
        }
        Admission { hits, misses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str) -> JournalEntry {
        JournalEntry {
            key: key.to_owned(),
            label: "base64 gcc".to_owned(),
            design: "base64".to_owned(),
            threads: 1,
            seed: 7,
            status: "ok".to_owned(),
            attempts: 1,
            ipc: 1.0,
            cycles: 100,
            committed: 100,
            completion: "fixed-window".to_owned(),
            error: String::new(),
            message: String::new(),
            validated: String::new(),
            mix: "gcc".to_owned(),
            tcpi: "1.000000".to_owned(),
            epi: 0.4,
            edp: 0.4,
        }
    }

    fn spec(seed: u64) -> RunSpec {
        RunSpec {
            index: 0,
            design: "base64".to_owned(),
            mix: vec!["gcc".to_owned()],
            seed,
            warmup: 100,
            measure: 1_000,
            overrides: Vec::new(),
        }
    }

    #[test]
    fn admission_splits_hits_and_misses() {
        let hit_spec = spec(7);
        let mut cache = ResultCache::default();
        cache.entries.insert(hit_spec.key(), entry(&hit_spec.key()));
        let runs = vec![hit_spec, spec(8)];
        let adm = cache.admit(&runs);
        assert_eq!(adm.hits.len(), 1);
        assert_eq!(adm.misses, vec![1]);
        assert!((adm.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merges_legacy_and_sharded_history() {
        let dir = std::env::temp_dir().join("shelfsim_cache_test_merge");
        let _ = std::fs::remove_dir_all(&dir);
        let sj = ShardedJournal::new(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        // An old single-file journal dropped into the directory is read as
        // one more shard.
        std::fs::write(dir.join("legacy.jsonl"), entry("ka").to_json_line()).expect("write");
        let mut w = sj.open_writer(0).expect("shard");
        w.buffer(&entry("kb"));
        w.flush().expect("flush");

        let cache = ResultCache::load(Some(&sj), None).expect("load");
        assert_eq!(cache.len(), 2);
        assert!(cache.get("ka").is_some() && cache.get("kb").is_some());
    }

    #[test]
    fn extra_file_ok_beats_a_quarantined_shard_entry() {
        let dir = std::env::temp_dir().join("shelfsim_cache_test_precedence");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let extra = dir.join("legacy.jsonl");
        std::fs::write(&extra, entry("k").to_json_line()).expect("write");
        let sj = ShardedJournal::new(dir.join("shards"));
        let mut w = sj.open_writer(0).expect("shard");
        let mut quarantined = entry("k");
        quarantined.status = "quarantined".to_owned();
        w.buffer(&quarantined);
        w.flush().expect("flush");

        // The cache merges by the shard rule: a completed result is never
        // shadowed by a quarantine for the same key, whichever file holds
        // which.
        let cache = ResultCache::load(Some(&sj), Some(&extra)).expect("load");
        assert_eq!(cache.get("k").expect("cached").status, "ok");
        assert_eq!(sj.load_merged().expect("shards")["k"].status, "quarantined");
    }
}
