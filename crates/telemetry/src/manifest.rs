//! Machine-readable run manifests.
//!
//! A [`RunManifest`] is the reproducibility record of one experiment
//! run: which code (git SHA), which grid (benchmarks × impedances ×
//! budgets × controllers), which seeds, what every point produced, how
//! the calibration caches behaved, and the run's golden numbers. One
//! JSON file per experiment is written under `results/manifests/`
//! (override with the `DIDT_MANIFEST_DIR` environment variable), so
//! every figure/table in `results/` can be traced back to — and
//! regenerated from — its manifest.
//!
//! **Timing vs non-timing fields.** Manifests mix deterministic
//! experiment identity/outcome fields with wall-clock observability
//! (durations, thread counts, metric snapshots). Serial and parallel
//! runs of the same experiment must agree on every *non-timing* field;
//! [`RunManifest::non_timing_fingerprint`] renders exactly that subset,
//! and the integration tests pin the guarantee. Timing fields are:
//! `created_unix_ms`, `threads`, `serial`, `wall_ms`, every
//! `duration_ms`/`secs`, and the `metrics`/`spans` snapshots (whose
//! values include wall-clock histograms and last-write-wins gauges).
//!
//! Seeds are stored as hex *strings* (`"0xd1d72004"`): JSON numbers are
//! `f64` and cannot carry all 64 bits of a seed.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::json::{Json, JsonError};

/// Manifest schema version; bump on breaking layout changes.
pub const SCHEMA_VERSION: u32 = 1;

/// One axis of a sweep grid, rendered to strings (`"benchmarks"` →
/// `["gzip", "swim"]`).
#[derive(Debug, Clone, PartialEq)]
pub struct GridAxis {
    /// Axis name.
    pub name: String,
    /// Axis values, in sweep order.
    pub values: Vec<String>,
}

/// The outcome of one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Index in sweep enumeration order.
    pub index: usize,
    /// Benchmark name.
    pub benchmark: String,
    /// Supply impedance, percent of target.
    pub pdn_pct: f64,
    /// Wavelet monitor term budget.
    pub monitor_terms: usize,
    /// Controller tag (`"none"`, `"wavelet-convolution"`, ...).
    pub controller: String,
    /// Workload seed, as a hex string (see module docs).
    pub seed_hex: String,
    /// Measured cycles of the controlled run.
    pub cycles: u64,
    /// Voltage emergencies in the controlled run.
    pub emergencies: u64,
    /// Voltage emergencies in the shared uncontrolled baseline.
    pub baseline_emergencies: u64,
    /// False-positive rate of the controlled run (fraction).
    pub false_positive_rate: f64,
    /// Slowdown vs the cell baseline, percent.
    pub slowdown_pct: f64,
    /// Minimum voltage observed in the controlled run.
    pub v_min: f64,
    /// Wall-clock time this point took, milliseconds. **Timing field.**
    pub duration_ms: f64,
}

/// Fill/hit statistics for one calibration-cache class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheClassRecord {
    /// Cache class name (`"pdns"`, `"traces"`, ...).
    pub name: &'static str,
    /// Times the value was actually computed (fills).
    pub computed: u64,
    /// Times the value was requested.
    pub requests: u64,
}

impl CacheClassRecord {
    /// Requests served from cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.requests.saturating_sub(self.computed)
    }

    /// Hits as a fraction of requests (0.0 when never requested).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits() as f64 / self.requests as f64
        }
    }
}

/// Outcome of one child experiment launched by an umbrella run
/// (`run_all`).
#[derive(Debug, Clone, PartialEq)]
pub struct SubRun {
    /// Child experiment name.
    pub name: String,
    /// Whether it completed successfully and wrote its outputs.
    pub ok: bool,
    /// Wall-clock seconds it took. **Timing field.**
    pub secs: f64,
}

/// One execution-scheduler counter observed by a run's sweep runner
/// (DESIGN.md §16). **Timing field** family: steal hits and busy time
/// vary with the claim interleaving, never with results, so they live
/// outside the non-timing fingerprint. Names are
/// interned against [`intern_scheduler_counter`] so manifests stay
/// lossless through a parse round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedCounterRecord {
    /// Interned counter name (`"runner.steal.hits"`, ...). The
    /// per-worker busy-time counter `"runner.worker.busy_ns"` repeats,
    /// one record per worker in worker order.
    pub name: &'static str,
    /// Counter value.
    pub value: u64,
}

/// The reproducibility record of one experiment run (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Manifest layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment name; also the manifest file stem.
    pub experiment: String,
    /// Git commit SHA of the working tree, when discoverable.
    pub git_sha: Option<String>,
    /// Manifest creation time, Unix milliseconds. **Timing field.**
    pub created_unix_ms: u64,
    /// Worker threads the run used. **Timing field.**
    pub threads: usize,
    /// Whether the run was forced serial. **Timing field.**
    pub serial: bool,
    /// Sweep grid axes (empty for non-sweep experiments).
    pub grid: Vec<GridAxis>,
    /// Scalar run parameters (instructions, warmup cycles, ...).
    pub params: Vec<(String, f64)>,
    /// Per-point outcomes, in sweep order.
    pub points: Vec<PointRecord>,
    /// Calibration-cache fill/hit statistics.
    pub cache: Vec<CacheClassRecord>,
    /// Named golden numbers (the figures/tables' headline values).
    pub golden: Vec<(String, f64)>,
    /// Child experiments, for umbrella runs.
    pub subruns: Vec<SubRun>,
    /// Metrics snapshot at exit. **Timing field.**
    pub metrics: Option<Json>,
    /// Aggregated span statistics at exit. **Timing field.**
    pub spans: Option<Json>,
    /// Execution-scheduler counters (steal hits, per-worker busy
    /// time). **Timing field.**
    pub scheduler: Vec<SchedCounterRecord>,
    /// Total wall-clock milliseconds. **Timing field.**
    pub wall_ms: f64,
}

/// Format a seed for manifest storage.
#[must_use]
pub fn seed_to_hex(seed: u64) -> String {
    format!("{seed:#x}")
}

/// Parse a manifest seed back to its `u64` value.
///
/// # Errors
///
/// Returns a message for strings not of the form `0x<hex>`.
pub fn seed_from_hex(text: &str) -> Result<u64, String> {
    let digits = text
        .strip_prefix("0x")
        .ok_or_else(|| format!("seed {text:?} missing 0x prefix"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("seed {text:?}: {e}"))
}

impl RunManifest {
    /// A fresh manifest for `experiment`: schema version, git SHA and
    /// creation time filled in, everything else empty.
    #[must_use]
    pub fn new(experiment: &str) -> Self {
        RunManifest {
            schema_version: SCHEMA_VERSION,
            experiment: experiment.to_string(),
            git_sha: discover_git_sha(),
            created_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis().min(u128::from(u64::MAX)) as u64),
            threads: 1,
            serial: false,
            grid: Vec::new(),
            params: Vec::new(),
            points: Vec::new(),
            cache: Vec::new(),
            golden: Vec::new(),
            subruns: Vec::new(),
            metrics: None,
            spans: None,
            scheduler: Vec::new(),
            wall_ms: 0.0,
        }
    }

    /// Serialize to the JSON tree.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let grid = self
            .grid
            .iter()
            .map(|axis| {
                (
                    axis.name.clone(),
                    Json::Arr(axis.values.iter().map(Json::str).collect()),
                )
            })
            .collect();
        let params = self
            .params
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect();
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("index", Json::Num(p.index as f64)),
                    ("benchmark", Json::str(&p.benchmark)),
                    ("pdn_pct", Json::Num(p.pdn_pct)),
                    ("monitor_terms", Json::Num(p.monitor_terms as f64)),
                    ("controller", Json::str(&p.controller)),
                    ("seed", Json::str(&p.seed_hex)),
                    ("cycles", Json::Num(p.cycles as f64)),
                    ("emergencies", Json::Num(p.emergencies as f64)),
                    (
                        "baseline_emergencies",
                        Json::Num(p.baseline_emergencies as f64),
                    ),
                    ("false_positive_rate", Json::Num(p.false_positive_rate)),
                    ("slowdown_pct", Json::Num(p.slowdown_pct)),
                    ("v_min", Json::Num(p.v_min)),
                    ("duration_ms", Json::Num(p.duration_ms)),
                ])
            })
            .collect();
        let cache = self
            .cache
            .iter()
            .map(|c| {
                (
                    c.name.to_string(),
                    Json::obj(vec![
                        ("computed", Json::Num(c.computed as f64)),
                        ("requests", Json::Num(c.requests as f64)),
                        ("hits", Json::Num(c.hits() as f64)),
                        ("hit_ratio", Json::Num(c.hit_ratio())),
                    ]),
                )
            })
            .collect();
        let golden = self
            .golden
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect();
        let subruns = self
            .subruns
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(&s.name)),
                    ("ok", Json::Bool(s.ok)),
                    ("secs", Json::Num(s.secs)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema_version", Json::Num(f64::from(self.schema_version))),
            ("experiment", Json::str(&self.experiment)),
            (
                "git_sha",
                self.git_sha.as_ref().map_or(Json::Null, Json::str),
            ),
            ("created_unix_ms", Json::Num(self.created_unix_ms as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("serial", Json::Bool(self.serial)),
            ("grid", Json::Obj(grid)),
            ("params", Json::Obj(params)),
            ("points", Json::Arr(points)),
            ("cache", Json::Obj(cache)),
            ("golden", Json::Obj(golden)),
            ("subruns", Json::Arr(subruns)),
            ("metrics", self.metrics.clone().unwrap_or(Json::Null)),
            ("spans", self.spans.clone().unwrap_or(Json::Null)),
            ("scheduler", self.scheduler_json()),
            ("wall_ms", Json::Num(self.wall_ms)),
        ])
    }

    /// The scheduler counter table as JSON (`null` when the run never
    /// recorded one — pre-PR10 manifests round-trip unchanged).
    fn scheduler_json(&self) -> Json {
        if self.scheduler.is_empty() {
            return Json::Null;
        }
        Json::Arr(
            self.scheduler
                .iter()
                .map(|c| {
                    Json::obj(vec![
                        ("name", Json::str(c.name)),
                        ("value", Json::Num(c.value as f64)),
                    ])
                })
                .collect(),
        )
    }

    /// Serialize to a pretty JSON string.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse a manifest back from JSON text. Inverse of
    /// [`RunManifest::to_json_string`]: round-trips every field.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    #[allow(clippy::too_many_lines)] // one straight-line field-by-field decode
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| format!("manifest missing field {name:?}"))
        };
        let num = |name: &str| field(name)?.as_f64().ok_or(format!("{name} not a number"));
        let grid = field("grid")?
            .as_obj()
            .ok_or("grid not an object")?
            .iter()
            .map(|(name, values)| {
                let values = values
                    .as_arr()
                    .ok_or(format!("grid axis {name} not an array"))?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(String::from)
                            .ok_or(format!("grid axis {name} holds a non-string"))
                    })
                    .collect::<Result<_, _>>()?;
                Ok(GridAxis {
                    name: name.clone(),
                    values,
                })
            })
            .collect::<Result<_, String>>()?;
        let points = field("points")?
            .as_arr()
            .ok_or("points not an array")?
            .iter()
            .map(parse_point)
            .collect::<Result<_, String>>()?;
        let cache = field("cache")?
            .as_obj()
            .ok_or("cache not an object")?
            .iter()
            .map(|(name, stats)| {
                let get = |k: &str| {
                    stats
                        .get(k)
                        .and_then(Json::as_u64)
                        .ok_or(format!("cache.{name}.{k} missing"))
                };
                Ok(CacheClassRecord {
                    name: intern_cache_name(name)?,
                    computed: get("computed")?,
                    requests: get("requests")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let pairs = |name: &str| -> Result<Vec<(String, f64)>, String> {
            field(name)?
                .as_obj()
                .ok_or(format!("{name} not an object"))?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or(format!("{name}.{k} not a number"))
                })
                .collect()
        };
        let subruns = field("subruns")?
            .as_arr()
            .ok_or("subruns not an array")?
            .iter()
            .map(|s| {
                Ok(SubRun {
                    name: s
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("subrun missing name")?
                        .to_string(),
                    ok: s
                        .get("ok")
                        .and_then(Json::as_bool)
                        .ok_or("subrun missing ok")?,
                    secs: s
                        .get("secs")
                        .and_then(Json::as_f64)
                        .ok_or("subrun missing secs")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let optional_json = |name: &str| -> Result<Option<Json>, String> {
            Ok(match field(name)? {
                Json::Null => None,
                other => Some(other.clone()),
            })
        };
        let scheduler = match field("scheduler")? {
            Json::Null => Vec::new(),
            Json::Arr(items) => items
                .iter()
                .map(|c| {
                    Ok(SchedCounterRecord {
                        name: intern_scheduler_counter(
                            c.get("name")
                                .and_then(Json::as_str)
                                .ok_or("scheduler counter missing name")?,
                        )?,
                        value: c
                            .get("value")
                            .and_then(Json::as_u64)
                            .ok_or("scheduler counter missing value")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            _ => return Err("scheduler not an array or null".into()),
        };
        Ok(RunManifest {
            schema_version: num("schema_version")? as u32,
            experiment: field("experiment")?
                .as_str()
                .ok_or("experiment not a string")?
                .to_string(),
            git_sha: match field("git_sha")? {
                Json::Null => None,
                v => Some(v.as_str().ok_or("git_sha not a string")?.to_string()),
            },
            created_unix_ms: field("created_unix_ms")?
                .as_u64()
                .ok_or("created_unix_ms not an integer")?,
            threads: num("threads")? as usize,
            serial: field("serial")?.as_bool().ok_or("serial not a bool")?,
            grid,
            params: pairs("params")?,
            points,
            cache,
            golden: pairs("golden")?,
            subruns,
            metrics: optional_json("metrics")?,
            spans: optional_json("spans")?,
            scheduler,
            wall_ms: num("wall_ms")?,
        })
    }

    /// Render only the non-timing fields (see module docs), as a stable
    /// string. Serial and parallel runs of the same experiment produce
    /// identical fingerprints; the determinism suite asserts this.
    #[must_use]
    pub fn non_timing_fingerprint(&self) -> String {
        let mut stripped = self.clone();
        stripped.created_unix_ms = 0;
        stripped.threads = 0;
        stripped.serial = false;
        stripped.metrics = None;
        stripped.spans = None;
        stripped.scheduler.clear();
        stripped.wall_ms = 0.0;
        for p in &mut stripped.points {
            p.duration_ms = 0.0;
        }
        for s in &mut stripped.subruns {
            s.secs = 0.0;
        }
        stripped.to_json_string()
    }

    /// Write the manifest as `<dir>/<experiment>.json`, creating `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json_string().as_bytes())?;
        Ok(path)
    }

    /// Write the manifest to the default directory ([`manifest_dir`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_to_dir(&manifest_dir())
    }
}

fn parse_point(p: &Json) -> Result<PointRecord, String> {
    let num = |k: &str| {
        p.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("point field {k} missing or not a number"))
    };
    let int = |k: &str| {
        p.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("point field {k} missing or not an integer"))
    };
    let text = |k: &str| {
        p.get(k)
            .and_then(Json::as_str)
            .map(String::from)
            .ok_or(format!("point field {k} missing or not a string"))
    };
    let seed_hex = text("seed")?;
    seed_from_hex(&seed_hex)?;
    Ok(PointRecord {
        index: int("index")? as usize,
        benchmark: text("benchmark")?,
        pdn_pct: num("pdn_pct")?,
        monitor_terms: int("monitor_terms")? as usize,
        controller: text("controller")?,
        seed_hex,
        cycles: int("cycles")?,
        emergencies: int("emergencies")?,
        baseline_emergencies: int("baseline_emergencies")?,
        false_positive_rate: num("false_positive_rate")?,
        slowdown_pct: num("slowdown_pct")?,
        v_min: num("v_min")?,
        duration_ms: num("duration_ms")?,
    })
}

/// Cache class names are `&'static str` in [`CacheClassRecord`] so the
/// writing side can use literals; map parsed names back onto the known
/// set.
fn intern_cache_name(name: &str) -> Result<&'static str, String> {
    const KNOWN: &[&str] = &[
        "pdns",
        "designs",
        "family_designs",
        "traces",
        "records",
        "gains",
        "family_gains",
        "gof_tests",
        "full_convs",
        "baselines",
    ];
    KNOWN
        .iter()
        .find(|&&k| k == name)
        .copied()
        .ok_or(format!("unknown cache class {name:?}"))
}

/// The scheduler-counter interning table. Counter names in
/// [`SchedCounterRecord`] are `&'static str` so the writing side can
/// use literals; map parsed (or runner-reported) names back onto the
/// known set so a manifest round-trip is lossless.
///
/// # Errors
///
/// Returns a message for names outside the registered set.
pub fn intern_scheduler_counter(name: &str) -> Result<&'static str, String> {
    const KNOWN: &[&str] = &["runner.steal.hits", "runner.worker.busy_ns"];
    KNOWN
        .iter()
        .find(|&&k| k == name)
        .copied()
        .ok_or(format!("unknown scheduler counter {name:?}"))
}

/// The manifest output directory: `DIDT_MANIFEST_DIR` when set, else
/// `results/manifests` relative to the working directory.
#[must_use]
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("DIDT_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("results/manifests"), PathBuf::from)
}

/// The current git commit SHA, discovered by walking up from the
/// working directory to the nearest `.git` and reading `HEAD` (plus
/// `packed-refs` for packed branches). `None` outside a repository —
/// no subprocess, no network.
fn discover_git_sha() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return read_git_head(&git);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn read_git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        // Detached HEAD: the file holds the SHA itself.
        return is_sha(head).then(|| head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(refname)) {
        let sha = sha.trim();
        return is_sha(sha).then(|| sha.to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    for line in packed.lines() {
        if let Some((sha, name)) = line.split_once(' ') {
            if name == refname && is_sha(sha) {
                return Some(sha.to_string());
            }
        }
    }
    None
}

fn is_sha(text: &str) -> bool {
    text.len() >= 40 && text.bytes().all(|b| b.is_ascii_hexdigit())
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare values that were stored, not computed
mod tests {
    use super::*;

    fn sample_manifest() -> RunManifest {
        let mut m = RunManifest::new("sample_experiment");
        m.git_sha = Some("0123456789abcdef0123456789abcdef01234567".into());
        m.created_unix_ms = 1_700_000_000_123;
        m.threads = 4;
        m.serial = false;
        m.grid = vec![
            GridAxis {
                name: "benchmarks".into(),
                values: vec!["gzip".into(), "swim".into()],
            },
            GridAxis {
                name: "pdn_pcts".into(),
                values: vec!["125".into(), "150".into()],
            },
        ];
        m.params = vec![
            ("instructions".into(), 3000.0),
            ("warmup_cycles".into(), 1000.0),
        ];
        m.points = vec![PointRecord {
            index: 0,
            benchmark: "gzip".into(),
            pdn_pct: 125.0,
            monitor_terms: 13,
            controller: "wavelet-convolution".into(),
            seed_hex: seed_to_hex(0xdead_beef_dead_beef),
            cycles: 2345,
            emergencies: 7,
            baseline_emergencies: 19,
            false_positive_rate: 0.25,
            slowdown_pct: 0.803_748_1,
            v_min: 0.9581,
            duration_ms: 12.75,
        }];
        m.cache = vec![
            CacheClassRecord {
                name: "pdns",
                computed: 2,
                requests: 10,
            },
            CacheClassRecord {
                name: "baselines",
                computed: 4,
                requests: 8,
            },
        ];
        m.golden = vec![("rms_error_pct".into(), 0.80)];
        m.subruns = vec![SubRun {
            name: "tab01_config".into(),
            ok: true,
            secs: 0.5,
        }];
        m.metrics = Some(Json::obj(vec![("counters", Json::Obj(vec![]))]));
        m.scheduler = vec![
            SchedCounterRecord {
                name: "runner.steal.hits",
                value: 9,
            },
            SchedCounterRecord {
                name: "runner.worker.busy_ns",
                value: 120_000,
            },
            SchedCounterRecord {
                name: "runner.worker.busy_ns",
                value: 98_000,
            },
        ];
        m.wall_ms = 1234.5;
        m
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample_manifest();
        let text = m.to_json_string();
        let back = RunManifest::from_json_str(&text).unwrap();
        assert_eq!(back, m);
        // And the rendering is stable.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn seeds_survive_at_full_64_bit_precision() {
        for seed in [0u64, 1, 0xd1d7_2004, u64::MAX, 1u64 << 63] {
            assert_eq!(seed_from_hex(&seed_to_hex(seed)).unwrap(), seed);
        }
        assert!(seed_from_hex("12ab").is_err());
        assert!(seed_from_hex("0xzz").is_err());
    }

    #[test]
    fn cache_record_derives_hits_and_ratio() {
        let c = CacheClassRecord {
            name: "traces",
            computed: 3,
            requests: 12,
        };
        assert_eq!(c.hits(), 9);
        assert!((c.hit_ratio() - 0.75).abs() < 1e-12);
        let empty = CacheClassRecord {
            name: "traces",
            computed: 0,
            requests: 0,
        };
        assert_eq!(empty.hit_ratio(), 0.0);
    }

    #[test]
    fn fingerprint_ignores_timing_fields_only() {
        let m = sample_manifest();
        let mut retimed = m.clone();
        retimed.created_unix_ms += 999;
        retimed.threads = 1;
        retimed.serial = true;
        retimed.wall_ms *= 3.0;
        retimed.points[0].duration_ms = 99.9;
        retimed.subruns[0].secs = 77.7;
        retimed.metrics = None;
        retimed.scheduler = vec![SchedCounterRecord {
            name: "runner.steal.hits",
            value: 1_000_000,
        }];
        assert_eq!(m.non_timing_fingerprint(), retimed.non_timing_fingerprint());

        let mut changed = m.clone();
        changed.points[0].emergencies += 1;
        assert_ne!(m.non_timing_fingerprint(), changed.non_timing_fingerprint());
        let mut reseeded = m;
        reseeded.points[0].seed_hex = seed_to_hex(42);
        assert_ne!(
            reseeded.non_timing_fingerprint(),
            changed.non_timing_fingerprint()
        );
    }

    #[test]
    fn write_round_trips_through_the_filesystem() {
        let dir = std::env::temp_dir().join(format!(
            "didt-manifest-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let m = sample_manifest();
        let path = m.write_to_dir(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "sample_experiment.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(RunManifest::from_json_str(&text).unwrap(), m);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `read_git_head` over a fresh `.git`-shaped temp directory
    /// holding `files` (path, contents).
    fn head_of(case: &str, files: &[(&str, &str)]) -> Option<String> {
        let git = std::env::temp_dir().join(format!(
            "didt-git-fixture-{case}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        for (path, contents) in files {
            let path = git.join(path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, contents).unwrap();
        }
        let head = read_git_head(&git);
        std::fs::remove_dir_all(&git).ok();
        head
    }

    #[test]
    fn reads_git_head_from_fixtures() {
        let sha = "0123456789abcdef0123456789abcdef01234567";
        let other = "fedcba9876543210fedcba9876543210fedcba98";
        let packed = format!(
            "# pack-refs with: peeled fully-peeled sorted \n{other} refs/heads/main\n\
             {sha} refs/heads/topic\n^{other}\n"
        );
        // A loose ref wins over a stale packed entry for the same name.
        let loose = head_of(
            "loose",
            &[
                ("HEAD", "ref: refs/heads/main\n"),
                ("refs/heads/main", &format!("{sha}\n")),
                ("packed-refs", &packed),
            ],
        );
        assert_eq!(loose.as_deref(), Some(sha));
        let packed_only = head_of(
            "packed",
            &[
                ("HEAD", "ref: refs/heads/topic\n"),
                ("packed-refs", &packed),
            ],
        );
        assert_eq!(packed_only.as_deref(), Some(sha));
        let detached = head_of("detached", &[("HEAD", &format!("{other}\n"))]);
        assert_eq!(detached.as_deref(), Some(other));
        let non_sha = head_of(
            "non-sha",
            &[
                ("HEAD", "ref: refs/heads/main\n"),
                ("refs/heads/main", "not a commit\n"),
            ],
        );
        assert_eq!(non_sha, None);
    }

    #[test]
    fn rejects_malformed_manifests() {
        assert!(RunManifest::from_json_str("{}").is_err());
        assert!(RunManifest::from_json_str("not json").is_err());
        let m = sample_manifest();
        let broken = m.to_json_string().replace("\"seed\": \"0x", "\"seed\": \"");
        assert!(RunManifest::from_json_str(&broken).is_err());
        // Scheduler counters outside the interning table are rejected,
        // not silently dropped.
        let rogue = m
            .to_json_string()
            .replace("runner.steal.hits", "runner.steal.bogus");
        assert!(RunManifest::from_json_str(&rogue).is_err());
        assert!(intern_scheduler_counter("runner.steal.hits").is_ok());
        assert!(intern_scheduler_counter("runner.steal.attempts").is_err());
        assert!(intern_scheduler_counter("nope").is_err());
    }
}
