//! Machine-readable benchmark reports and baseline comparison.
//!
//! [`Report`] is the JSON artifact `bench_all` writes (`BENCH_<name>.json`)
//! and CI diffs against the checked-in `BENCH_baseline.json`. Schema
//! (version 2):
//!
//! ```json
//! {
//!   "schema": 2,
//!   "machine": "1-core x86-64 KVM (CI class)",
//!   "config": {"duration_ms": 100, "reps": 3, "seed": 42, "threads": [1, 2]},
//!   "meta": {"BENCH_DUR_MS": "100", "OPTIK_PURE_SPIN": "1"},
//!   "scenarios": [
//!     {
//!       "scenario": "fig9.large.harris",
//!       "group": "fig9.large",
//!       "series": "harris",
//!       "points": [
//!         {
//!           "threads": 1,
//!           "mops": 1.234,
//!           "extra": {"cas_per_validation": 1.0},
//!           "internals": {"validation_fail_per_op": 0.002},
//!           "latency_percentiles": {"srch-suc": [5, 25, 50, 75, 95, 99, 1000]}
//!         }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! `meta` (schema 2) records the environment knobs that shaped the run
//! (`BENCH_*`, `OPTIK_PURE_SPIN`, `STRESS_SEED`), so a baseline is
//! reproducible from its own file. `internals` (schema 2) carries the
//! probe layer's per-point internal-behavior metrics. `meta`, `extra`,
//! `internals`, and `latency_percentiles` are omitted when empty; the
//! percentile tuple is `[p5, p25, p50, p75, p95, p99, count]`. Only
//! [`SCHEMA_VERSION`] documents with seven-entry tuples load; an older
//! format is a typed [`ReportError::Schema`] error.
//!
//! [`compare`] matches `(scenario, threads)` pairs between two reports and
//! flags throughput regressions beyond a fractional tolerance.

use std::collections::BTreeMap;
use std::path::Path;

use crate::driver::{Point, ScenarioReport, SweepConfig};
use crate::json::{self, Json};
use crate::latency::Percentiles;

/// Current schema version, the only one [`Report::from_json`] accepts.
pub const SCHEMA_VERSION: u64 = 2;

/// The environment knobs recorded into a report's `meta` block: everything
/// `BENCH_*` plus the named non-`BENCH_` switches that shape a run.
const META_ENV_EXTRAS: [&str; 2] = ["OPTIK_PURE_SPIN", "STRESS_SEED"];

/// Collects the reproducibility-relevant environment (`BENCH_*`,
/// `OPTIK_PURE_SPIN`, `STRESS_SEED`) as sorted key/value pairs.
pub fn env_meta() -> Vec<(String, String)> {
    let mut meta: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("BENCH_") || META_ENV_EXTRAS.contains(&k.as_str()))
        .collect();
    meta.sort();
    meta
}

/// A complete benchmark report: configuration, machine class, results.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Schema version ([`SCHEMA_VERSION`] on write).
    pub schema: u64,
    /// Free-form machine-class note ("1-core x86-64 KVM", ...).
    pub machine: String,
    /// The sweep configuration the report was produced with.
    pub config: SweepConfig,
    /// Environment knobs the run was shaped by (sorted key/value pairs;
    /// see [`env_meta`]). Empty in schema-1 reports.
    pub meta: Vec<(String, String)>,
    /// One entry per swept scenario.
    pub scenarios: Vec<ScenarioReport>,
}

impl Report {
    /// Bundles sweep results into a report, capturing the current
    /// environment's knobs ([`env_meta`]) into the `meta` block.
    pub fn new(machine: &str, config: &SweepConfig, scenarios: Vec<ScenarioReport>) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            machine: machine.to_string(),
            config: config.clone(),
            meta: env_meta(),
            scenarios,
        }
    }

    /// A default machine-class string: core count + OS + architecture.
    pub fn machine_class() -> String {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0);
        format!(
            "{cores}-core {} {}",
            std::env::consts::ARCH,
            std::env::consts::OS
        )
    }

    /// Serializes to the schema-1 JSON document.
    pub fn to_json(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert("schema".into(), Json::Num(self.schema as f64));
        root.insert("machine".into(), Json::Str(self.machine.clone()));
        let mut cfg = BTreeMap::new();
        cfg.insert(
            "duration_ms".into(),
            Json::Num(self.config.duration.as_millis() as f64),
        );
        cfg.insert("reps".into(), Json::Num(self.config.reps as f64));
        cfg.insert("seed".into(), Json::Num(self.config.seed as f64));
        cfg.insert(
            "threads".into(),
            Json::Arr(
                self.config
                    .threads
                    .iter()
                    .map(|&t| Json::Num(t as f64))
                    .collect(),
            ),
        );
        root.insert("config".into(), Json::Obj(cfg));
        if !self.meta.is_empty() {
            root.insert(
                "meta".into(),
                Json::Obj(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            );
        }
        root.insert(
            "scenarios".into(),
            Json::Arr(self.scenarios.iter().map(scenario_to_json).collect()),
        );
        Json::Obj(root).render()
    }

    /// Parses a [`SCHEMA_VERSION`] JSON document.
    pub fn from_json(input: &str) -> Result<Self, ReportError> {
        let v = json::parse(input)?;
        let schema = field_u64(&v, "schema")?;
        if schema != SCHEMA_VERSION {
            return Err(ReportError::Schema(format!(
                "unsupported schema version {schema} (expected {SCHEMA_VERSION})"
            )));
        }
        let machine = field_str(&v, "machine")?.to_string();
        let cfg = v
            .get("config")
            .ok_or_else(|| ReportError::Schema("missing `config`".into()))?;
        let config = SweepConfig {
            threads: cfg
                .get("threads")
                .and_then(Json::as_arr)
                .ok_or_else(|| ReportError::Schema("missing `config.threads`".into()))?
                .iter()
                .map(|t| {
                    t.as_u64()
                        .map(|t| t as usize)
                        .ok_or_else(|| ReportError::Schema("bad thread count".into()))
                })
                .collect::<Result<_, _>>()?,
            duration: std::time::Duration::from_millis(field_u64(cfg, "duration_ms")?),
            reps: field_u64(cfg, "reps")? as usize,
            seed: field_u64(cfg, "seed")?,
        };
        let meta = match v.get("meta").and_then(Json::as_obj) {
            Some(m) => m
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|v| (k.clone(), v.to_string()))
                        .ok_or_else(|| ReportError::Schema("non-string `meta` value".into()))
                })
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        let scenarios = v
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or_else(|| ReportError::Schema("missing `scenarios`".into()))?
            .iter()
            .map(scenario_from_json)
            .collect::<Result<_, _>>()?;
        Ok(Self {
            schema,
            machine,
            config,
            meta,
            scenarios,
        })
    }

    /// Writes the JSON document to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a report from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ReportError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| ReportError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Self::from_json(&text)
    }
}

/// What can go wrong loading a report.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// Filesystem failure.
    Io(String),
    /// Malformed JSON.
    Parse(json::ParseError),
    /// Valid JSON, wrong shape.
    Schema(String),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Io(e) => write!(f, "io error: {e}"),
            ReportError::Parse(e) => write!(f, "{e}"),
            ReportError::Schema(e) => write!(f, "schema error: {e}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<json::ParseError> for ReportError {
    fn from(e: json::ParseError) -> Self {
        ReportError::Parse(e)
    }
}

fn scenario_to_json(s: &ScenarioReport) -> Json {
    let mut m = BTreeMap::new();
    m.insert("scenario".into(), Json::Str(s.scenario.clone()));
    m.insert("group".into(), Json::Str(s.group.clone()));
    m.insert("series".into(), Json::Str(s.series.clone()));
    m.insert(
        "points".into(),
        Json::Arr(
            s.points
                .iter()
                .map(|p| {
                    let mut pm = BTreeMap::new();
                    pm.insert("threads".into(), Json::Num(p.threads as f64));
                    pm.insert("mops".into(), Json::Num(p.mops));
                    if !p.extra.is_empty() {
                        pm.insert(
                            "extra".into(),
                            Json::Obj(
                                p.extra
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                    .collect(),
                            ),
                        );
                    }
                    if !p.internals.is_empty() {
                        pm.insert(
                            "internals".into(),
                            Json::Obj(
                                p.internals
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                    .collect(),
                            ),
                        );
                    }
                    if !p.latency.is_empty() {
                        pm.insert(
                            "latency_percentiles".into(),
                            Json::Obj(
                                p.latency
                                    .iter()
                                    .map(|(k, q)| {
                                        (
                                            k.clone(),
                                            Json::Arr(
                                                [
                                                    q.p5,
                                                    q.p25,
                                                    q.p50,
                                                    q.p75,
                                                    q.p95,
                                                    q.p99,
                                                    q.count as u64,
                                                ]
                                                .iter()
                                                .map(|&x| Json::Num(x as f64))
                                                .collect(),
                                            ),
                                        )
                                    })
                                    .collect(),
                            ),
                        );
                    }
                    Json::Obj(pm)
                })
                .collect(),
        ),
    );
    Json::Obj(m)
}

fn scenario_from_json(v: &Json) -> Result<ScenarioReport, ReportError> {
    let points = v
        .get("points")
        .and_then(Json::as_arr)
        .ok_or_else(|| ReportError::Schema("missing `points`".into()))?
        .iter()
        .map(|p| {
            let threads = field_u64(p, "threads")? as usize;
            let mops = p
                .get("mops")
                .and_then(Json::as_f64)
                .ok_or_else(|| ReportError::Schema("missing `mops`".into()))?;
            let extra = match p.get("extra").and_then(Json::as_obj) {
                Some(m) => m
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|v| (k.clone(), v))
                            .ok_or_else(|| ReportError::Schema("bad extra metric".into()))
                    })
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            };
            let internals = match p.get("internals").and_then(Json::as_obj) {
                Some(m) => m
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|v| (k.clone(), v))
                            .ok_or_else(|| ReportError::Schema("bad internals metric".into()))
                    })
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            };
            let latency = match p.get("latency_percentiles").and_then(Json::as_obj) {
                Some(m) => m
                    .iter()
                    .map(|(k, v)| {
                        let q: Vec<u64> = v
                            .as_arr()
                            .unwrap_or(&[])
                            .iter()
                            .filter_map(Json::as_u64)
                            .collect();
                        if q.len() != 7 {
                            return Err(ReportError::Schema(format!(
                                "latency tuple for `{k}` must have 7 entries"
                            )));
                        }
                        Ok((
                            k.clone(),
                            Percentiles {
                                p5: q[0],
                                p25: q[1],
                                p50: q[2],
                                p75: q[3],
                                p95: q[4],
                                p99: q[5],
                                count: q[6] as usize,
                            },
                        ))
                    })
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            };
            Ok(Point {
                threads,
                mops,
                extra,
                latency,
                internals,
            })
        })
        .collect::<Result<_, ReportError>>()?;
    Ok(ScenarioReport {
        scenario: field_str(v, "scenario")?.to_string(),
        group: field_str(v, "group")?.to_string(),
        series: field_str(v, "series")?.to_string(),
        points,
    })
}

fn field_u64(v: &Json, key: &str) -> Result<u64, ReportError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ReportError::Schema(format!("missing or non-integer `{key}`")))
}

fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, ReportError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ReportError::Schema(format!("missing `{key}`")))
}

/// Throughput delta for one `(scenario, threads)` pair present in both
/// reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Scenario name.
    pub scenario: String,
    /// Thread count.
    pub threads: usize,
    /// Baseline throughput (Mops/s).
    pub baseline_mops: f64,
    /// Current throughput (Mops/s).
    pub current_mops: f64,
}

impl Delta {
    /// `current / baseline` (∞-safe: a zero baseline compares as 1.0,
    /// nothing meaningful can be said about it).
    pub fn ratio(&self) -> f64 {
        if self.baseline_mops <= 0.0 {
            1.0
        } else {
            self.current_mops / self.baseline_mops
        }
    }

    /// Whether this pair regressed by more than `tolerance` (fractional:
    /// `0.25` = "fail below 75% of baseline").
    pub fn is_regression(&self, tolerance: f64) -> bool {
        self.ratio() < 1.0 - tolerance
    }
}

/// Result of matching two reports point-by-point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Pairs present in both reports.
    pub deltas: Vec<Delta>,
    /// Scenario names in the baseline with no counterpart in the current
    /// report (coverage shrank — CI should treat this as suspicious).
    pub missing_in_current: Vec<String>,
    /// Scenario names only the current report has (new scenarios; fine).
    pub new_in_current: Vec<String>,
}

impl Comparison {
    /// Deltas regressing beyond `tolerance` (see [`Delta::is_regression`]).
    pub fn regressions(&self, tolerance: f64) -> Vec<&Delta> {
        self.deltas
            .iter()
            .filter(|d| d.is_regression(tolerance))
            .collect()
    }

    /// Geometric-mean throughput ratio over all matched pairs (1.0 if no
    /// pairs matched).
    pub fn geomean_ratio(&self) -> f64 {
        if self.deltas.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.deltas.iter().map(|d| d.ratio().max(1e-12).ln()).sum();
        (log_sum / self.deltas.len() as f64).exp()
    }
}

/// Matches `(scenario, threads)` pairs of `current` against `baseline`.
pub fn compare(current: &Report, baseline: &Report) -> Comparison {
    let mut cmp = Comparison::default();
    for base in &baseline.scenarios {
        match current
            .scenarios
            .iter()
            .find(|s| s.scenario == base.scenario)
        {
            None => cmp.missing_in_current.push(base.scenario.clone()),
            Some(cur) => {
                for bp in &base.points {
                    if let Some(cp) = cur.at(bp.threads) {
                        cmp.deltas.push(Delta {
                            scenario: base.scenario.clone(),
                            threads: bp.threads,
                            baseline_mops: bp.mops,
                            current_mops: cp.mops,
                        });
                    }
                }
            }
        }
    }
    for cur in &current.scenarios {
        if !baseline
            .scenarios
            .iter()
            .any(|s| s.scenario == cur.scenario)
        {
            cmp.new_in_current.push(cur.scenario.clone());
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_report() -> Report {
        let cfg = SweepConfig {
            threads: vec![1, 2],
            duration: Duration::from_millis(100),
            reps: 3,
            seed: 42,
        };
        let scen = |name: &str, mops: &[f64]| ScenarioReport {
            scenario: name.to_string(),
            group: name.rsplit_once('.').unwrap().0.to_string(),
            series: name.rsplit_once('.').unwrap().1.to_string(),
            points: mops
                .iter()
                .zip([1usize, 2])
                .map(|(&m, t)| Point {
                    threads: t,
                    mops: m,
                    extra: vec![("cas".into(), 1.25)],
                    internals: vec![
                        ("thread_imbalance".into(), 1.5),
                        ("validation_fail_per_op".into(), 0.002),
                    ],
                    latency: vec![(
                        "srch-suc".into(),
                        Percentiles {
                            p5: 5,
                            p25: 25,
                            p50: 50,
                            p75: 75,
                            p95: 95,
                            p99: 99,
                            count: 1000,
                        },
                    )],
                })
                .collect(),
        };
        Report::new(
            "test-box",
            &cfg,
            vec![
                scen("fig9.large.harris", &[1.5, 2.5]),
                scen("fig12.stable.ms-lf", &[3.0, 4.0]),
            ],
        )
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = sample_report();
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn roundtrip_through_comparator_is_clean() {
        // The acceptance criterion: serialize → load → compare against
        // itself must show zero regressions at any tolerance.
        let r = sample_report();
        let loaded = Report::from_json(&r.to_json()).unwrap();
        let cmp = compare(&loaded, &r);
        assert_eq!(cmp.deltas.len(), 4, "2 scenarios × 2 thread counts");
        assert!(cmp.regressions(0.0).is_empty());
        assert!(cmp.missing_in_current.is_empty());
        assert!(cmp.new_in_current.is_empty());
        assert!((cmp.geomean_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn comparison_flags_regressions_beyond_tolerance() {
        let base = sample_report();
        let mut cur = sample_report();
        // 30% regression at one point, 10% improvement at another.
        cur.scenarios[0].points[0].mops = 1.5 * 0.7;
        cur.scenarios[1].points[1].mops = 4.0 * 1.1;
        let cmp = compare(&cur, &base);
        let reg = cmp.regressions(0.25);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].scenario, "fig9.large.harris");
        assert_eq!(reg[0].threads, 1);
        // Tightening the tolerance catches it, loosening does not.
        assert!(cmp.regressions(0.35).is_empty());
        assert_eq!(cmp.regressions(0.05).len(), 1);
    }

    #[test]
    fn comparison_reports_coverage_changes() {
        let base = sample_report();
        let mut cur = sample_report();
        cur.scenarios.remove(0);
        cur.scenarios.push(ScenarioReport {
            scenario: "fig5.new".into(),
            group: "fig5".into(),
            series: "new".into(),
            points: vec![],
        });
        let cmp = compare(&cur, &base);
        assert_eq!(cmp.missing_in_current, vec!["fig9.large.harris"]);
        assert_eq!(cmp.new_in_current, vec!["fig5.new"]);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let source = sample_report().to_json();
        let text = source.replace("\"schema\": 2", "\"schema\": 99");
        assert_ne!(text, source, "replacement must have applied");
        assert!(matches!(
            Report::from_json(&text),
            Err(ReportError::Schema(_))
        ));
    }

    #[test]
    fn schema_one_documents_are_rejected() {
        // A schema-1 report: no meta, no internals.
        let mut legacy = sample_report();
        legacy.meta.clear();
        for s in &mut legacy.scenarios {
            for p in &mut s.points {
                p.internals.clear();
            }
        }
        let text = legacy.to_json().replace("\"schema\": 2", "\"schema\": 1");
        assert_ne!(text, legacy.to_json(), "replacement must have applied");
        assert!(matches!(
            Report::from_json(&text),
            Err(ReportError::Schema(m)) if m.contains("schema version 1")
        ));
    }

    #[test]
    fn meta_block_roundtrips_and_captures_bench_env() {
        // Uniquely-named knob: safe against parallel tests reading env.
        std::env::set_var("BENCH_META_PROBE_TEST", "on");
        let r = sample_report();
        std::env::remove_var("BENCH_META_PROBE_TEST");
        assert!(
            r.meta
                .iter()
                .any(|(k, v)| k == "BENCH_META_PROBE_TEST" && v == "on"),
            "Report::new records BENCH_* knobs: {:?}",
            r.meta
        );
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back.meta, r.meta);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(matches!(
            Report::from_json("{not json"),
            Err(ReportError::Parse(_))
        ));
        assert!(matches!(
            Report::from_json("{\"schema\": 1}"),
            Err(ReportError::Schema(_))
        ));
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("optik_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let r = sample_report();
        r.save(&path).unwrap();
        assert_eq!(Report::load(&path).unwrap(), r);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(Report::load(&path), Err(ReportError::Io(_))));
    }

    #[test]
    fn six_entry_latency_tuples_are_rejected() {
        let r = sample_report();
        // Rewrite the 7-entry tuple as the pre-p99 6-entry form.
        let text = r
            .to_json()
            .replace("[5, 25, 50, 75, 95, 99, 1000]", "[5, 25, 50, 75, 95, 1000]");
        assert_ne!(text, r.to_json(), "replacement must have applied");
        assert!(matches!(
            Report::from_json(&text),
            Err(ReportError::Schema(m)) if m.contains("must have 7 entries")
        ));
    }

    #[test]
    fn zero_baseline_is_not_a_regression() {
        let d = Delta {
            scenario: "x.y".into(),
            threads: 1,
            baseline_mops: 0.0,
            current_mops: 0.0,
        };
        assert!(!d.is_regression(0.25));
        assert_eq!(d.ratio(), 1.0);
    }
}
