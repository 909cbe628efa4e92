//! The resumable campaign journal: one JSON object per line, appended as
//! each run reaches a final outcome. Re-invoking a campaign loads the
//! journal and skips every run whose key already has a final entry, so a
//! killed process loses at most the runs that were in flight.
//!
//! The format is deliberately flat (string and number values only) so it
//! survives with a hand-rolled parser — the workspace builds offline with
//! no serde. A line truncated by a crash mid-write simply fails to parse
//! and the run is re-executed: append-only + idempotent keys make that
//! safe.

use shelfsim_core::json_escape;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// Parses a flat (non-nested) JSON object into key → raw-value-text pairs.
/// String values are unescaped; numbers/booleans keep their literal text.
/// Returns `None` on any syntax error (the caller skips the line).
pub(crate) fn parse_flat_json(line: &str) -> Option<BTreeMap<String, String>> {
    let mut chars = line.trim().chars().peekable();
    let mut map = BTreeMap::new();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars>) {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    }

    fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
        if chars.next()? != '"' {
            return None;
        }
        let mut s = String::new();
        loop {
            match chars.next()? {
                '"' => return Some(s),
                '\\' => match chars.next()? {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'u' => {
                        let hex: String = (0..4).map(|_| chars.next().unwrap_or('!')).collect();
                        let code = u32::from_str_radix(&hex, 16).ok()?;
                        s.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => s.push(c),
            }
        }
    }

    skip_ws(&mut chars);
    if chars.next()? != '{' {
        return None;
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek()? {
            '}' => {
                chars.next();
                break;
            }
            ',' => {
                chars.next();
                continue;
            }
            '"' => {}
            _ => return None,
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let value = if chars.peek()? == &'"' {
            parse_string(&mut chars)?
        } else {
            let mut v = String::new();
            while chars
                .peek()
                .is_some_and(|&c| c != ',' && c != '}' && !c.is_whitespace())
            {
                v.push(chars.next().expect("peeked"));
            }
            if v.is_empty() {
                return None;
            }
            v
        };
        map.insert(key, value);
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return None; // trailing garbage
    }
    Some(map)
}

/// One journaled final outcome of a campaign run.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// [`crate::RunSpec::key`] of the run.
    pub key: String,
    /// Human-readable label (`design mix`).
    pub label: String,
    /// Design-point name.
    pub design: String,
    /// Thread count (mix size).
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// Final status: `ok` or `quarantined`.
    pub status: String,
    /// Attempts consumed.
    pub attempts: u32,
    /// Aggregate IPC (0.0 when quarantined).
    pub ipc: f64,
    /// Measured cycles (0 when quarantined).
    pub cycles: u64,
    /// Committed instructions (0 when quarantined).
    pub committed: u64,
    /// [`shelfsim_core::Completion`] tag of the final successful attempt.
    pub completion: String,
    /// Failure-kind tag of the last failed attempt (empty when clean).
    pub error: String,
    /// Failure message of the last failed attempt (empty when clean).
    pub message: String,
    /// Validation-tier outcome: `clean` when the run lockstep-validated
    /// against the functional reference, empty when the tier was off (also
    /// the value restored from journals written before the tier existed).
    pub validated: String,
    /// Benchmark mix, `+`-joined in thread order (empty in entries written
    /// before the sweep surface existed).
    pub mix: String,
    /// Per-thread CPIs, comma-joined in thread order (empty when
    /// quarantined or restored from a pre-sweep journal). The Pareto
    /// report's STP computation reads these back.
    pub tcpi: String,
    /// Energy per committed instruction in nJ (0.0 when unavailable).
    pub epi: f64,
    /// Energy-delay product (nJ/instr × CPI; 0.0 when unavailable).
    pub edp: f64,
}

impl JournalEntry {
    /// Serializes to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            concat!(
                r#"{{"key":"{}","label":"{}","design":"{}","threads":{},"seed":{},"#,
                r#""status":"{}","attempts":{},"ipc":{:.6},"cycles":{},"committed":{},"#,
                r#""completion":"{}","error":"{}","message":"{}","validated":"{}","#,
                r#""mix":"{}","tcpi":"{}","epi":{:.6},"edp":{:.6}}}"#
            ),
            json_escape(&self.key),
            json_escape(&self.label),
            json_escape(&self.design),
            self.threads,
            self.seed,
            json_escape(&self.status),
            self.attempts,
            self.ipc,
            self.cycles,
            self.committed,
            json_escape(&self.completion),
            json_escape(&self.error),
            json_escape(&self.message),
            json_escape(&self.validated),
            json_escape(&self.mix),
            json_escape(&self.tcpi),
            self.epi,
            self.edp,
        )
    }

    /// Per-thread CPIs parsed back from the `tcpi` field (empty when the
    /// entry predates the sweep surface or the run was quarantined).
    pub fn thread_cpis(&self) -> Vec<f64> {
        if self.tcpi.is_empty() {
            return Vec::new();
        }
        self.tcpi
            .split(',')
            .filter_map(|s| s.parse().ok())
            .collect()
    }

    /// Rebuilds an entry from a parsed journal line; `None` when required
    /// fields are missing or malformed.
    pub fn from_map(map: &BTreeMap<String, String>) -> Option<Self> {
        let get = |k: &str| map.get(k).cloned();
        Some(JournalEntry {
            key: get("key")?,
            label: get("label").unwrap_or_default(),
            design: get("design").unwrap_or_default(),
            threads: get("threads")?.parse().ok()?,
            seed: get("seed")?.parse().ok()?,
            status: get("status")?,
            attempts: get("attempts")?.parse().ok()?,
            ipc: get("ipc")?.parse().ok()?,
            cycles: get("cycles")?.parse().ok()?,
            committed: get("committed").unwrap_or_default().parse().unwrap_or(0),
            completion: get("completion").unwrap_or_default(),
            error: get("error").unwrap_or_default(),
            message: get("message").unwrap_or_default(),
            validated: get("validated").unwrap_or_default(),
            mix: get("mix").unwrap_or_default(),
            tcpi: get("tcpi").unwrap_or_default(),
            epi: get("epi").unwrap_or_default().parse().unwrap_or(0.0),
            edp: get("edp").unwrap_or_default().parse().unwrap_or(0.0),
        })
    }
}

/// Merges journal files into one view: within a file the last entry per
/// key wins, and when the same key appears in several files the better
/// status wins (`ok` > `rejected` > `quarantined`; ties keep the earlier
/// file's entry). Missing files are empty; malformed lines (e.g. a
/// crash-truncated tail) are skipped. This is the only journal reader:
/// shard directories and the result cache both merge through it.
///
/// # Errors
///
/// Propagates I/O errors other than "file not found".
pub(crate) fn merge_journal_files(
    paths: impl IntoIterator<Item = PathBuf>,
) -> std::io::Result<BTreeMap<String, JournalEntry>> {
    let mut merged: BTreeMap<String, JournalEntry> = BTreeMap::new();
    for path in paths {
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let mut latest: BTreeMap<String, JournalEntry> = BTreeMap::new();
        for line in BufReader::new(file).lines() {
            if let Some(entry) = parse_flat_json(&line?)
                .as_ref()
                .and_then(JournalEntry::from_map)
            {
                latest.insert(entry.key.clone(), entry);
            }
        }
        for (key, entry) in latest {
            let rank = status_rank(&entry.status);
            if merged
                .get(&key)
                .is_none_or(|old| rank > status_rank(&old.status))
            {
                merged.insert(key, entry);
            }
        }
    }
    Ok(merged)
}

/// Merge preference when the same key appears in multiple shards: a
/// completed result always beats a rejection, which beats a quarantine —
/// so a retry that succeeded on another worker (or in a later sweep over
/// an overlapping shard layout) wins deterministically.
fn status_rank(status: &str) -> u8 {
    match status {
        "ok" => 2,
        "rejected" => 1,
        _ => 0,
    }
}

/// A per-worker journal shard writer: serialized entries accumulate in a
/// local buffer with no locking (the worker owns its shard file
/// exclusively) and [`ShardWriter::flush`] lands them with one `write_all`
/// per run completion — a crash can truncate at most the final line, which
/// the merge-on-read parser skips.
#[derive(Debug)]
pub struct ShardWriter {
    file: File,
    buf: String,
}

impl ShardWriter {
    /// Buffers one entry locally; nothing reaches the file until
    /// [`ShardWriter::flush`].
    pub fn buffer(&mut self, entry: &JournalEntry) {
        self.buf.push_str(&entry.to_json_line());
        self.buf.push('\n');
    }

    /// Flushes every buffered line with a single `write_all`.
    ///
    /// # Errors
    ///
    /// Propagates write errors (the buffer is kept for retry).
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        Ok(())
    }
}

impl Drop for ShardWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// A directory of per-worker journal shards (`shard-NNN.jsonl`), merged
/// deterministically on read. Workers append to their own shard with no
/// shared lock; resume and the result cache read the merged view, so any
/// shard layout (different worker counts, overlapping reruns) resumes
/// correctly.
#[derive(Clone, Debug)]
pub struct ShardedJournal {
    dir: PathBuf,
}

impl ShardedJournal {
    /// A sharded journal rooted at `dir` (need not exist yet).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ShardedJournal { dir: dir.into() }
    }

    /// The shard file a given worker appends to.
    pub fn shard_path(&self, worker: usize) -> PathBuf {
        self.dir.join(format!("shard-{worker:03}.jsonl"))
    }

    /// Opens worker `worker`'s shard for buffered appending, creating the
    /// directory and the file as needed.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn open_writer(&self, worker: usize) -> std::io::Result<ShardWriter> {
        std::fs::create_dir_all(&self.dir)?;
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(self.shard_path(worker))?;
        // Newline-terminate a crash-torn final line so the next append
        // starts a fresh line instead of concatenating into the garbage
        // (which would lose both entries to the parser). The torn fragment
        // stays: it fails to parse and its run re-executes.
        if file.metadata()?.len() > 0 {
            let mut last = [0u8; 1];
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
            }
        }
        Ok(ShardWriter {
            file,
            buf: String::new(),
        })
    }

    /// Every `*.jsonl` shard in the directory, sorted by filename so the
    /// merge order is deterministic. A missing directory is an empty
    /// journal.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors other than "not found".
    pub fn shard_files(&self) -> std::io::Result<Vec<PathBuf>> {
        let rd = match std::fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut files: Vec<PathBuf> = rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        files.sort();
        Ok(files)
    }

    /// Loads the merged view of every shard in sorted filename order (see
    /// `merge_journal_files`): a deterministic function of the completed
    /// run set, independent of the shard layout that produced it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn load_merged(&self) -> std::io::Result<BTreeMap<String, JournalEntry>> {
        merge_journal_files(self.shard_files()?)
    }

    /// Renders the merged view as canonical bytes: one JSON line per key in
    /// sorted key order. Byte-identical across any shard layout that holds
    /// the same completed run set — the determinism contract the sweep
    /// smoke asserts.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn merged_bytes(&self) -> std::io::Result<String> {
        Ok(self
            .load_merged()?
            .values()
            .map(|entry| entry.to_json_line() + "\n")
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, status: &str) -> JournalEntry {
        JournalEntry {
            key: key.to_owned(),
            label: "base64 gcc+mcf".to_owned(),
            design: "base64".to_owned(),
            threads: 2,
            seed: 7,
            status: status.to_owned(),
            attempts: 1,
            ipc: 1.25,
            cycles: 1_000,
            committed: 1_250,
            completion: "fixed-window".to_owned(),
            error: String::new(),
            message: "quote \" backslash \\ newline \n done".to_owned(),
            validated: "clean".to_owned(),
            mix: "gcc+mcf".to_owned(),
            tcpi: "1.500000,1.750000".to_owned(),
            epi: 0.421337,
            edp: 0.631019,
        }
    }

    #[test]
    fn entries_without_a_validated_field_still_load() {
        // Journals written before the validation tier existed lack the
        // field; they must keep resuming (empty = tier was off).
        let line = r#"{"key":"old","label":"l","design":"base64","threads":2,"seed":7,"status":"ok","attempts":1,"ipc":1.0,"cycles":10,"committed":10,"completion":"fixed-window","error":"","message":""}"#;
        let map = parse_flat_json(line).expect("parses");
        let e = JournalEntry::from_map(&map).expect("rebuilds");
        assert_eq!(e.validated, "");
        assert_eq!(e.mix, "", "pre-sweep entries default the mix");
        assert!(e.thread_cpis().is_empty());
        assert_eq!(e.epi, 0.0);
    }

    #[test]
    fn thread_cpis_roundtrip() {
        let e = entry("k", "ok");
        assert_eq!(e.thread_cpis(), vec![1.5, 1.75]);
    }

    #[test]
    fn sharded_merge_prefers_ok_and_is_layout_independent() {
        let dir = std::env::temp_dir().join("shelfsim_journal_test_shards");
        let _ = std::fs::remove_dir_all(&dir);
        let sj = ShardedJournal::new(&dir);
        // Worker 0: k1 quarantined, k2 ok. Worker 1: k1 ok (overlapping
        // shard — a later sweep retried it), plus a crash-truncated tail.
        let mut w0 = sj.open_writer(0).expect("shard 0");
        let mut q = entry("k1", "quarantined");
        q.error = "panic".to_owned();
        w0.buffer(&q);
        w0.buffer(&entry("k2", "ok"));
        w0.flush().expect("flush");
        let mut w1 = sj.open_writer(1).expect("shard 1");
        w1.buffer(&entry("k1", "ok"));
        w1.flush().expect("flush");
        use std::io::Write as _;
        let mut raw = OpenOptions::new()
            .append(true)
            .open(sj.shard_path(1))
            .expect("reopen");
        raw.write_all(br#"{"key":"k9","status":"ok","torn"#)
            .expect("write");
        drop(raw);

        let merged = sj.load_merged().expect("merge");
        assert_eq!(merged.len(), 2, "torn k9 line skipped");
        assert_eq!(merged["k1"].status, "ok", "ok beats quarantined");
        let bytes_a = sj.merged_bytes().expect("bytes");

        // The same completed run set in a different shard layout renders
        // byte-identical merged output.
        let dir_b = std::env::temp_dir().join("shelfsim_journal_test_shards_b");
        let _ = std::fs::remove_dir_all(&dir_b);
        let sj_b = ShardedJournal::new(&dir_b);
        let mut w = sj_b.open_writer(3).expect("shard 3");
        w.buffer(&entry("k2", "ok"));
        w.buffer(&entry("k1", "ok"));
        w.flush().expect("flush");
        assert_eq!(bytes_a, sj_b.merged_bytes().expect("bytes"));
    }

    #[test]
    fn missing_shard_dir_is_empty() {
        let sj = ShardedJournal::new("/nonexistent/definitely/missing-dir");
        assert!(sj.load_merged().expect("missing dir is fine").is_empty());
        assert!(sj.merged_bytes().expect("missing dir is fine").is_empty());
    }

    #[test]
    fn roundtrips_through_json_line() {
        let e = entry("abcd", "ok");
        let line = e.to_json_line();
        let map = parse_flat_json(&line).expect("parses");
        let back = JournalEntry::from_map(&map).expect("rebuilds");
        assert_eq!(e, back);
    }

    #[test]
    fn load_skips_malformed_lines_and_keeps_last_entry_per_key() {
        let dir = std::env::temp_dir().join("shelfsim_journal_test_load");
        let _ = std::fs::remove_dir_all(&dir);
        let sj = ShardedJournal::new(&dir);
        let mut w = sj.open_writer(0).expect("open");
        w.buffer(&entry("k1", "quarantined"));
        w.buffer(&entry("k2", "ok"));
        // A retry later overwrote k1's outcome, and a crash truncated the
        // final line mid-write.
        w.buffer(&entry("k1", "ok"));
        w.flush().expect("flush");
        drop(w);
        use std::io::Write as _;
        let mut raw = OpenOptions::new()
            .append(true)
            .open(sj.shard_path(0))
            .expect("reopen");
        raw.write_all(br#"{"key":"k3","status":"ok","trunc"#)
            .expect("write");
        drop(raw);
        let loaded = sj.load_merged().expect("load");
        assert_eq!(loaded.len(), 2, "k3's torn line is skipped");
        assert_eq!(loaded["k1"].status, "ok", "last entry per key wins");
        assert_eq!(loaded["k2"].ipc, 1.25);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_flat_json("not json").is_none());
        assert!(parse_flat_json("{\"a\":}").is_none());
        assert!(parse_flat_json("{\"a\":1} trailing").is_none());
        assert!(parse_flat_json("{\"a\" 1}").is_none());
        let ok = parse_flat_json(r#"{ "a" : "b" , "n" : 1.5 }"#).expect("spaced json parses");
        assert_eq!(ok["a"], "b");
        assert_eq!(ok["n"], "1.5");
    }
}
