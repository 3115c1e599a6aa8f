//! The on-disk run warehouse: a versioned store of the simulation
//! results that cannot be recomputed from the code at hand.
//!
//! Two record kinds share one layout:
//!
//! * **run** — one simulation's full [`ff_core::SimReport`], keyed by
//!   `(kernel, scale, budget, model, machine configuration,
//!   CODE_VERSION)`: the sweep cache is a warehouse of run records
//!   under `results/cache/` (see [`crate::sweep::run_key`]);
//! * **golden** — one captured [`ff_core::SimReport`] (cycles, retired,
//!   six-class and fifteen-cause breakdowns, stall profile, cache
//!   stats, two-pass or runahead counters) under `results/runs/`, keyed
//!   by `(kernel, model, params, scale, CODE_VERSION)`: it may be
//!   degraded on purpose or taken at an older code version.
//!
//! A payload in another [`ff_core::SimReport`] layout fails to parse
//! (a missing field): the sweep cache treats it as a miss and simulates
//! the run again, and `ff_report` reports it as an error.
//!
//! Experiment rows and `perf/BENCH_*.json` snapshots are not stored:
//! rows are a pure function of cached runs, and the snapshots are read
//! from their directory.
//!
//! Every record carries a stable fnv1a64 content hash of its payload,
//! so two records with the same key but different results are
//! detectable, and storing identical data again is byte-stable.
//! Records live one-per-key at `<dir>/<fnv1a64(key):016x>.json`, so
//! storing a key again overwrites it: latest wins.
//!
//! The warehouse also owns `sweep_log.jsonl`, an append-only history
//! of per-invocation sweep summaries (cache hits/misses, wall time,
//! jobs) that [`crate::sweep::run_sweep`] writes on every cached run
//! and the dashboard's hit-rate panel reads back.

use crate::sweep::CODE_VERSION;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fs;
use std::path::{Path, PathBuf};

/// Warehouse layout version, stored in every record. Readers reject
/// records written by a different layout.
pub const WAREHOUSE_VERSION: &str = "1";

/// Default warehouse directory, relative to the working directory.
pub const DEFAULT_RUNS_DIR: &str = "results/runs";

/// Record kind for cached sweep runs.
pub const KIND_RUN: &str = "run";
/// Record kind for captured golden [`ff_core::SimReport`]s.
pub const KIND_GOLDEN: &str = "golden";

/// One warehouse record: a keyed, content-hashed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// [`KIND_RUN`] or [`KIND_GOLDEN`].
    pub kind: String,
    /// Canonical identity, e.g.
    /// `golden;kernel=mcf-like;model=2P;params=;scale=test;code=3`.
    pub key: String,
    /// `fnv1a64` of the canonically serialized payload, as 16 hex
    /// digits — detects silent result drift under an unchanged key.
    pub content_hash: String,
    /// The key's axes echoed as ordered `(name, value)` pairs, for
    /// queries that don't want to re-parse the key string.
    pub meta: Vec<(String, String)>,
    /// The stored result: a serialized `SimReport`.
    pub payload: Value,
}

impl Serialize for RunRecord {
    fn to_value(&self) -> Value {
        let meta: Vec<(String, Value)> =
            self.meta.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect();
        Value::Object(vec![
            ("warehouse".to_string(), Value::Str(WAREHOUSE_VERSION.to_string())),
            ("kind".to_string(), Value::Str(self.kind.clone())),
            ("key".to_string(), Value::Str(self.key.clone())),
            ("content_hash".to_string(), Value::Str(self.content_hash.clone())),
            ("meta".to_string(), Value::Object(meta)),
            ("payload".to_string(), self.payload.clone()),
        ])
    }
}

impl Deserialize for RunRecord {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let version = v.field("warehouse")?.as_str().ok_or_else(bad("warehouse"))?;
        if version != WAREHOUSE_VERSION {
            return Err(DeError::new(format!(
                "warehouse layout `{version}` (this build reads `{WAREHOUSE_VERSION}`)"
            )));
        }
        let Value::Object(meta_pairs) = v.field("meta")? else {
            return Err(DeError::new("`meta` must be an object"));
        };
        let mut meta = Vec::with_capacity(meta_pairs.len());
        for (k, mv) in meta_pairs {
            meta.push((k.clone(), mv.as_str().ok_or_else(bad("meta value"))?.to_string()));
        }
        Ok(RunRecord {
            kind: v.field("kind")?.as_str().ok_or_else(bad("kind"))?.to_string(),
            key: v.field("key")?.as_str().ok_or_else(bad("key"))?.to_string(),
            content_hash: v
                .field("content_hash")?
                .as_str()
                .ok_or_else(bad("content_hash"))?
                .to_string(),
            meta,
            payload: v.field("payload")?.clone(),
        })
    }
}

fn bad(what: &str) -> impl FnOnce() -> DeError + '_ {
    move || DeError::new(format!("`{what}` must be a string"))
}

/// 64-bit FNV-1a, the content-address hash (no external deps).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable content hash of a payload: `fnv1a64` of its canonical
/// (compact) JSON serialization, as 16 hex digits.
#[must_use]
pub fn content_hash(payload: &Value) -> String {
    let text = serde_json::to_string(payload).unwrap_or_default();
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// The canonical key of a record: `kind;name=value;...` over its axes.
#[must_use]
pub(crate) fn record_key(kind: &str, axes: &[(&str, impl AsRef<str>)]) -> String {
    let mut key = kind.to_string();
    for (name, value) in axes {
        key.push(';');
        key.push_str(name);
        key.push('=');
        key.push_str(value.as_ref());
    }
    key
}

/// Builds a record of any kind from its key axes and payload.
#[must_use]
pub(crate) fn record(kind: &str, axes: &[(&str, impl AsRef<str>)], payload: Value) -> RunRecord {
    RunRecord {
        kind: kind.to_string(),
        key: record_key(kind, axes),
        content_hash: content_hash(&payload),
        meta: axes.iter().map(|(k, v)| ((*k).to_string(), v.as_ref().to_string())).collect(),
        payload,
    }
}

/// Builds the record for one captured golden [`ff_core::SimReport`].
#[must_use]
pub fn golden_record(
    kernel: &str,
    model: &str,
    params: &str,
    scale: &str,
    report: &ff_core::SimReport,
) -> RunRecord {
    record(
        KIND_GOLDEN,
        &[
            ("kernel", kernel),
            ("model", model),
            ("params", params),
            ("scale", scale),
            ("code", CODE_VERSION),
        ],
        report.to_value(),
    )
}

/// One line of `sweep_log.jsonl`: the summary of one sweep invocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepLogEntry {
    /// Experiment name (`fig6`, `ablate_queue`, …).
    pub experiment: String,
    /// UTC date the sweep ran (`YYYY-MM-DD`).
    pub date: String,
    /// Workload scale label.
    pub scale: String,
    /// [`CODE_VERSION`] the sweep ran under.
    pub code: String,
    /// Worker threads used.
    pub jobs: u64,
    /// Distinct runs the kept cells read.
    pub runs: u64,
    /// Runs simulated (cache misses that succeeded).
    pub computed: u64,
    /// Runs loaded from the disk cache.
    pub cached: u64,
    /// Runs whose simulation panicked.
    pub failed: u64,
    /// Wall-clock time of the whole sweep, in milliseconds.
    pub wall_ms: u64,
}

impl SweepLogEntry {
    /// Disk-cache hit rate of the invocation, in `[0, 1]` (1.0 when no
    /// run was read: nothing needed computing).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.runs == 0 {
            1.0
        } else {
            self.cached as f64 / self.runs as f64
        }
    }
}

/// The warehouse directory that belongs next to a sweep cache
/// directory: a sibling `runs/` when the cache is itself named
/// `cache/` (so the default `results/cache` logs into `results/runs`),
/// otherwise a `runs/` subdirectory (keeping test sweeps with
/// throwaway cache dirs self-contained).
#[must_use]
pub fn runs_dir_for(cache_dir: &Path) -> PathBuf {
    if cache_dir.file_name().is_some_and(|n| n == "cache") {
        cache_dir.with_file_name("runs")
    } else {
        cache_dir.join("runs")
    }
}

/// Handle on one warehouse directory. The directory is created lazily
/// on first write; reads of a missing warehouse yield empty results.
#[derive(Debug, Clone)]
pub struct Warehouse {
    dir: PathBuf,
}

impl Warehouse {
    /// Opens (without touching the filesystem) the warehouse at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Warehouse {
        Warehouse { dir: dir.into() }
    }

    /// Where a key's record lives: `<dir>/<fnv1a64(key):016x>.json`.
    #[must_use]
    pub fn record_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", fnv1a64(key.as_bytes())))
    }

    /// Stores `rec`, overwriting any previous record under the same
    /// key (latest wins). Returns the record's path.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory can't be created or the
    /// file can't be written.
    pub fn put(&self, rec: &RunRecord) -> Result<PathBuf, String> {
        fs::create_dir_all(&self.dir).map_err(|e| format!("mkdir {}: {e}", self.dir.display()))?;
        let path = self.record_path(&rec.key);
        let text = serde_json::to_string_pretty(&rec.to_value())
            .map_err(|e| format!("serialize {}: {e}", rec.key))?;
        // Write-then-rename: concurrent readers never see a torn record.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(&tmp, text + "\n").map_err(|e| format!("write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Loads the record stored under `key`.
    ///
    /// # Errors
    ///
    /// Returns a message when the record is missing, unparseable, or
    /// stored under a colliding hash with a different key.
    pub fn get(&self, key: &str) -> Result<RunRecord, String> {
        let path = self.record_path(key);
        let text = fs::read_to_string(&path)
            .map_err(|_| format!("no record for `{key}` in {}", self.dir.display()))?;
        let rec = parse_record(&text, &path)?;
        if rec.key != key {
            return Err(format!("hash collision: `{key}` resolves to record `{}`", rec.key));
        }
        Ok(rec)
    }

    /// Every record in the warehouse, sorted by key (deterministic
    /// whatever the directory iteration order). A missing warehouse
    /// directory reads as empty.
    ///
    /// # Errors
    ///
    /// Returns a message when a record file exists but can't be read
    /// or parsed — a corrupt warehouse should be loud, not silently
    /// partial.
    pub fn list(&self) -> Result<Vec<RunRecord>, String> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(_) => return Ok(Vec::new()),
        };
        let mut records = Vec::new();
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            let is_record = path.extension().is_some_and(|e| e == "json");
            if !is_record {
                continue;
            }
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            records.push(parse_record(&text, &path)?);
        }
        records.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(records)
    }

    /// Path of the append-only sweep summary log.
    #[must_use]
    pub fn sweep_log_path(&self) -> PathBuf {
        self.dir.join("sweep_log.jsonl")
    }

    /// Appends one invocation summary to the sweep log.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory can't be created or the
    /// log can't be appended to.
    pub fn append_sweep_log(&self, entry: &SweepLogEntry) -> Result<(), String> {
        fs::create_dir_all(&self.dir).map_err(|e| format!("mkdir {}: {e}", self.dir.display()))?;
        let line = serde_json::to_string(&entry.to_value())
            .map_err(|e| format!("serialize sweep log entry: {e}"))?;
        let path = self.sweep_log_path();
        use std::io::Write as _;
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(file, "{line}").map_err(|e| format!("append {}: {e}", path.display()))
    }

    /// The sweep summary history, in file (chronological) order. A
    /// missing log reads as empty; unparseable lines are skipped — the
    /// log is advisory history, not a source of truth.
    #[must_use]
    pub fn sweep_log(&self) -> Vec<SweepLogEntry> {
        let Ok(text) = fs::read_to_string(self.sweep_log_path()) else {
            return Vec::new();
        };
        text.lines()
            .filter_map(|line| serde_json::from_str::<Value>(line).ok())
            .filter_map(|v| SweepLogEntry::from_value(&v).ok())
            .collect()
    }
}

fn parse_record(text: &str, path: &Path) -> Result<RunRecord, String> {
    let value: Value =
        serde_json::from_str(text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    RunRecord::from_value(&value).map_err(|e| format!("parse {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::fnv1a64;

    #[test]
    fn fnv_is_stable() {
        // Pinned: record filenames must not drift between builds.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
