//! Durable job manifests: the crash-safe record `dse resume` reads.
//!
//! Every cache-enabled sweep writes a `job-*.json` manifest into
//! `<cache_dir>/jobs/` before evaluating (tmp + rename, the store's
//! publish discipline) and rewrites it when the run ends — `done` on success, `interrupted` after a graceful
//! drain. The manifest carries everything a resume needs to re-enter
//! the *exact* run: the resolved spec as TOML (a byte-exact
//! round-trip), the model fingerprint the results were computed under,
//! the run mode and its flags (threads, output paths, constraints),
//! and a progress snapshot.
//!
//! Resume needs no partial-result file of its own: the point store
//! already holds every flushed point, so re-entering the run replays
//! the prefix as warm hits and pays only the missing tail, so the
//! outcome is byte-identical to an uninterrupted run. A manifest whose
//! fingerprint no longer matches the current models is refused:
//! resuming it would silently mix generations.
//!
//! The format is the crate's usual hand-rolled flat JSON (one object,
//! string and number values) — parseable by eye in a crash dump and
//! by the ~60-line scanner below.

use std::io;
use std::path::{Path, PathBuf};

use crate::obs_counters;
use crate::spec::{SpecError, SweepSpec};

/// Which entry point the job ran under — resume re-enters the same one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobMode {
    /// Single-process exhaustive sweep.
    Sweep,
}

impl JobMode {
    /// The manifest's `mode` field value.
    pub fn as_str(self) -> &'static str {
        match self {
            JobMode::Sweep => "sweep",
        }
    }

    /// Parse a `mode` field value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sweep" => Some(JobMode::Sweep),
            _ => None,
        }
    }
}

/// Where the job stands. Transitions: `Running` → `Done` |
/// `Interrupted`; a resumed job flips back to `Running` and then ends
/// like any other. A `Running` manifest whose process is gone means a
/// hard crash — `dse resume` treats it like `Interrupted` (the store
/// holds whatever was flushed either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The run is (or was, if the process died) in flight.
    Running,
    /// The run drained on a signal; the tail is unevaluated.
    Interrupted,
    /// Every point delivered.
    Done,
}

impl JobStatus {
    /// The manifest's `status` field value.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Running => "running",
            JobStatus::Interrupted => "interrupted",
            JobStatus::Done => "done",
        }
    }

    /// Parse a `status` field value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "running" => Some(JobStatus::Running),
            "interrupted" => Some(JobStatus::Interrupted),
            "done" => Some(JobStatus::Done),
            _ => None,
        }
    }
}

/// One durable job record. Every field a resume needs, nothing the
/// store already holds.
#[derive(Debug, Clone, PartialEq)]
pub struct JobManifest {
    /// `job-<epoch_us>-<pid>`: sortable by creation, unique per
    /// process, filename-safe.
    pub id: String,
    /// Which entry point to re-enter.
    pub mode: JobMode,
    /// Where the job stands.
    pub status: JobStatus,
    /// Microseconds since the epoch at creation.
    pub created_us: u64,
    /// [`crate::MODEL_VERSION`] at creation — a resume under different
    /// models is refused, not silently re-keyed.
    pub model_version: String,
    /// [`crate::model_fingerprint`] at creation (same refusal).
    pub fingerprint: u64,
    /// The resolved spec, exactly as [`SweepSpec::to_toml`] wrote it.
    pub spec_toml: String,
    /// The store this job reads and writes.
    pub cache_dir: String,
    /// Points in the spec.
    pub total_points: usize,
    /// Points known flushed when the manifest was last written. A
    /// progress note for humans and `dse resume`'s report — the store
    /// is the authority.
    pub delivered: usize,
    /// `--threads`, when given explicitly.
    pub threads: Option<usize>,
    /// `--csv` output path.
    pub csv: Option<String>,
    /// `--json` output path.
    pub json_out: Option<String>,
    /// `--max-area` constraint.
    pub max_area: Option<f64>,
    /// `--max-power` constraint.
    pub max_power: Option<f64>,
    /// `--min-speedup` constraint.
    pub min_speedup: Option<f64>,
}

/// Where a store's job manifests live.
pub fn jobs_dir(cache_dir: &Path) -> PathBuf {
    cache_dir.join("jobs")
}

impl JobManifest {
    /// A fresh `Running` manifest for a run about to start. Computes
    /// the id from wall clock + pid and snapshots the model identity;
    /// the caller fills the optional flags and calls [`save`].
    ///
    /// [`save`]: JobManifest::save
    pub fn new(mode: JobMode, spec: &SweepSpec, cache_dir: &str, total_points: usize) -> Self {
        let created_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        JobManifest {
            id: format!("job-{created_us}-{}", std::process::id()),
            mode,
            status: JobStatus::Running,
            created_us,
            model_version: crate::MODEL_VERSION.to_string(),
            fingerprint: crate::model_fingerprint(),
            spec_toml: spec.to_toml(),
            cache_dir: cache_dir.to_string(),
            total_points,
            delivered: 0,
            threads: None,
            csv: None,
            json_out: None,
            max_area: None,
            max_power: None,
            min_speedup: None,
        }
    }

    /// This manifest's on-disk path.
    pub fn path(&self) -> PathBuf {
        jobs_dir(Path::new(&self.cache_dir)).join(format!("{}.json", self.id))
    }

    /// The spec this job runs, parsed back out of the manifest.
    pub fn spec(&self) -> Result<SweepSpec, SpecError> {
        SweepSpec::from_toml_str(&self.spec_toml)
    }

    /// Whether the current process's models match the ones the job's
    /// results were computed under.
    pub fn models_match(&self) -> bool {
        self.model_version == crate::MODEL_VERSION && self.fingerprint == crate::model_fingerprint()
    }

    /// Persist the manifest crash-safely: write a tmp file in the jobs
    /// dir, then rename over the final name — a reader (or a crash)
    /// sees the old complete manifest or the new complete one, never a
    /// torn hybrid.
    pub fn save(&self) -> io::Result<PathBuf> {
        let _span = ng_obs::span("job");
        let dir = jobs_dir(Path::new(&self.cache_dir));
        std::fs::create_dir_all(&dir)?;
        let final_path = dir.join(format!("{}.json", self.id));
        let tmp_path = dir.join(format!("{}.json.tmp-{}", self.id, std::process::id()));
        std::fs::write(&tmp_path, self.to_json())?;
        std::fs::rename(&tmp_path, &final_path)?;
        obs_counters::jobs_manifests_written().incr();
        Ok(final_path)
    }

    /// Serialize as one flat JSON object (`None` fields omitted).
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = vec![
            format!("\"id\":{}", crate::emit::JsonStr(&self.id)),
            format!("\"mode\":{}", crate::emit::JsonStr(self.mode.as_str())),
            format!("\"status\":{}", crate::emit::JsonStr(self.status.as_str())),
            format!("\"created_us\":{}", self.created_us),
            format!("\"model_version\":{}", crate::emit::JsonStr(&self.model_version)),
            format!("\"fingerprint\":{}", self.fingerprint),
            format!("\"spec_toml\":{}", crate::emit::JsonStr(&self.spec_toml)),
            format!("\"cache_dir\":{}", crate::emit::JsonStr(&self.cache_dir)),
            format!("\"total_points\":{}", self.total_points),
            format!("\"delivered\":{}", self.delivered),
        ];
        if let Some(v) = self.threads {
            fields.push(format!("\"threads\":{v}"));
        }
        if let Some(v) = &self.csv {
            fields.push(format!("\"csv\":{}", crate::emit::JsonStr(v)));
        }
        if let Some(v) = &self.json_out {
            fields.push(format!("\"json_out\":{}", crate::emit::JsonStr(v)));
        }
        if let Some(v) = self.max_area {
            fields.push(format!("\"max_area\":{v}"));
        }
        if let Some(v) = self.max_power {
            fields.push(format!("\"max_power\":{v}"));
        }
        if let Some(v) = self.min_speedup {
            fields.push(format!("\"min_speedup\":{v}"));
        }
        format!("{{{}}}\n", fields.join(","))
    }

    /// Parse a manifest back out of [`JobManifest::to_json`]'s output.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let fields = parse_flat_object(text)?;
        let str_field = |name: &str| -> Option<&str> {
            fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
                JsonValue::Str(s) => Some(s.as_str()),
                JsonValue::Num(_) => None,
            })
        };
        let num_field = |name: &str| -> Option<f64> {
            fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
                JsonValue::Num(n) => n.parse().ok(),
                JsonValue::Str(_) => None,
            })
        };
        // Integers parse as u64 directly — routing them through f64
        // would round anything above 2^53, and the model fingerprint
        // uses all 64 bits (a rounded fingerprint makes every resume
        // refuse with a phantom model mismatch).
        let int_field = |name: &str| -> Option<u64> {
            fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
                JsonValue::Num(n) => n.parse().ok(),
                JsonValue::Str(_) => None,
            })
        };
        let required_str = |name: &str| -> Result<String, String> {
            str_field(name).map(str::to_string).ok_or_else(|| format!("manifest: missing `{name}`"))
        };
        let required_num = |name: &str| -> Result<u64, String> {
            int_field(name).ok_or_else(|| format!("manifest: missing `{name}`"))
        };
        // A job of the removed `--map-search` flag: resuming it as a
        // plain sweep would rewrite its CSV without the mapping columns.
        if fields.iter().any(|(k, _)| k == "map_search") {
            return Err("manifest: `map_search` jobs are no longer supported".to_string());
        }
        let mode_str = required_str("mode")?;
        let status_str = required_str("status")?;
        Ok(JobManifest {
            id: required_str("id")?,
            mode: JobMode::parse(&mode_str)
                .ok_or_else(|| format!("manifest: unknown mode `{mode_str}`"))?,
            status: JobStatus::parse(&status_str)
                .ok_or_else(|| format!("manifest: unknown status `{status_str}`"))?,
            created_us: required_num("created_us")?,
            model_version: required_str("model_version")?,
            fingerprint: required_num("fingerprint")?,
            spec_toml: required_str("spec_toml")?,
            cache_dir: required_str("cache_dir")?,
            total_points: required_num("total_points")? as usize,
            delivered: required_num("delivered")? as usize,
            threads: int_field("threads").map(|n| n as usize),
            csv: str_field("csv").map(str::to_string),
            json_out: str_field("json_out").map(str::to_string),
            max_area: num_field("max_area"),
            max_power: num_field("max_power"),
            min_speedup: num_field("min_speedup"),
        })
    }

    /// Load a manifest file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Resolve a `dse resume` operand: a path to a manifest file, or a
    /// job id looked up in `cache_dir`'s jobs dir.
    pub fn find(cache_dir: &Path, id_or_path: &str) -> Result<Self, String> {
        let direct = Path::new(id_or_path);
        if direct.is_file() {
            return Self::load(direct);
        }
        let in_jobs = jobs_dir(cache_dir).join(format!("{id_or_path}.json"));
        if in_jobs.is_file() {
            return Self::load(&in_jobs);
        }
        Err(format!(
            "no job `{id_or_path}` (looked for a file at that path and for {})",
            in_jobs.display()
        ))
    }

    /// Every manifest in `cache_dir`'s jobs dir, newest first. Files
    /// that fail to parse are skipped with a stderr note — one torn
    /// manifest must not hide the others.
    pub fn list(cache_dir: &Path) -> Vec<Self> {
        let Ok(entries) = std::fs::read_dir(jobs_dir(cache_dir)) else { return Vec::new() };
        let mut jobs: Vec<JobManifest> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "json")
                    && p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("job-"))
            })
            .filter_map(|p| match Self::load(&p) {
                Ok(m) => Some(m),
                Err(e) => {
                    eprintln!("dse: skipping unreadable job manifest: {e}");
                    None
                }
            })
            .collect();
        jobs.sort_by(|a, b| b.created_us.cmp(&a.created_us).then(b.id.cmp(&a.id)));
        jobs
    }

    /// The newest resumable job in `cache_dir` — `Interrupted`, or
    /// `Running` with no trace of the process (a hard crash). What a
    /// bare `dse resume` picks.
    pub fn latest_resumable(cache_dir: &Path) -> Option<Self> {
        Self::list(cache_dir).into_iter().find(|m| m.status != JobStatus::Done)
    }
}

/// A parsed flat-JSON value: this format has only strings and numbers.
/// Numbers keep their raw token so integer fields can parse all 64
/// bits losslessly (floats parse from the same token on demand).
enum JsonValue {
    Str(String),
    Num(String),
}

/// Scan one flat JSON object (`{"k":v,...}`, string or number values,
/// no nesting) into key/value pairs. Tolerates surrounding whitespace;
/// rejects everything else loudly — a manifest is small enough that
/// "parse or refuse" beats recovering half a record.
fn parse_flat_object(text: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = text.trim().chars().peekable();
    if chars.next() != Some('{') {
        return Err("manifest: expected `{`".to_string());
    }
    let mut fields = Vec::new();
    loop {
        while chars.peek().is_some_and(|c| c.is_whitespace() || *c == ',') {
            chars.next();
        }
        match chars.peek() {
            Some('}') => break,
            Some('"') => {}
            other => return Err(format!("manifest: expected a key, got {other:?}")),
        }
        let key = parse_json_string(&mut chars)?;
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
        if chars.next() != Some(':') {
            return Err(format!("manifest: missing `:` after `{key}`"));
        }
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_json_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                let mut num = String::new();
                while chars
                    .peek()
                    .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                {
                    num.push(chars.next().expect("peeked"));
                }
                if num.parse::<f64>().is_err() {
                    return Err(format!("manifest: bad number `{num}` for `{key}`"));
                }
                JsonValue::Num(num)
            }
            other => return Err(format!("manifest: bad value for `{key}`: {other:?}")),
        };
        fields.push((key, value));
    }
    Ok(fields)
}

/// Parse one JSON string literal (cursor on the opening quote),
/// undoing exactly the escapes [`crate::emit::JsonStr`] produces.
fn parse_json_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("manifest: expected `\"`".to_string());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("manifest: unterminated string".to_string()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("manifest: bad \\u escape `{hex}`"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("manifest: bad codepoint \\u{hex}"))?,
                    );
                }
                other => return Err(format!("manifest: unknown escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobManifest {
        let spec = SweepSpec::quick();
        let mut m = JobManifest {
            // Constructed directly rather than via `new()` so the test
            // does not pay the model-fingerprint probe sweep.
            id: "job-1700000000000000-42".to_string(),
            mode: JobMode::Sweep,
            status: JobStatus::Interrupted,
            created_us: 1_700_000_000_000_000,
            model_version: crate::MODEL_VERSION.to_string(),
            // Uses all 64 bits and is not representable in f64 — pins
            // the lossless integer parse (a rounded fingerprint makes
            // every resume refuse with a phantom model mismatch).
            fingerprint: 0x360F_E8C2_230D_3F21,
            spec_toml: spec.to_toml(),
            cache_dir: ".dse-cache".to_string(),
            total_points: spec.point_count(),
            delivered: 7,
            threads: Some(4),
            csv: Some("out dir/points.csv".to_string()),
            json_out: None,
            max_area: Some(3.5),
            max_power: None,
            min_speedup: None,
        };
        m.spec_toml.push_str("# trailing \"quoted\" comment\n");
        m
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample();
        let back = JobManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m, "every field survives, escapes included");
    }

    #[test]
    fn manifest_spec_round_trips_exactly() {
        let spec = SweepSpec::quick();
        let m = JobManifest { spec_toml: spec.to_toml(), ..sample() };
        let back = JobManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.spec().unwrap(), spec, "resume runs the exact spec");
    }

    #[test]
    fn save_load_find_and_latest_resumable() {
        let dir = std::env::temp_dir().join(format!("ng-dse-job-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut older = sample();
        older.cache_dir = dir.to_string_lossy().into_owned();
        older.save().unwrap();
        let mut newer = older.clone();
        newer.id = "job-1700000000000001-42".to_string();
        newer.created_us += 1;
        newer.save().unwrap();
        let mut done = newer.clone();
        done.id = "job-1700000000000002-42".to_string();
        done.created_us += 1;
        done.status = JobStatus::Done;
        done.save().unwrap();

        let found = JobManifest::find(&dir, &older.id).unwrap();
        assert_eq!(found, older);
        let listed = JobManifest::list(&dir);
        assert_eq!(listed.len(), 3);
        assert_eq!(listed[0].id, done.id, "newest first");
        // Done jobs are not resumable; the newest interrupted one wins.
        assert_eq!(JobManifest::latest_resumable(&dir).unwrap().id, newer.id);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_manifests_are_refused_not_half_read() {
        assert!(JobManifest::from_json("{\"id\":\"job-1\",\"mode\":\"sw").is_err());
        assert!(JobManifest::from_json("").is_err());
        assert!(JobManifest::from_json("{}").is_err(), "missing required fields");
        // A well-formed manifest left behind by a guided-search job (a
        // mode this binary no longer has) is refused by name.
        let search = sample().to_json().replace("\"mode\":\"sweep\"", "\"mode\":\"search\"");
        let err = JobManifest::from_json(&search).unwrap_err();
        assert!(err.contains("unknown mode `search`"), "{err}");
        // So is one left behind by a `--map-search` sweep, whose CSV a
        // plain resume would rewrite without its mapping columns.
        let mapped = sample().to_json().replace("}\n", ",\"map_search\":1}\n");
        let err = JobManifest::from_json(&mapped).unwrap_err();
        assert!(err.contains("map_search"), "{err}");
    }
}
