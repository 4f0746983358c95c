//! Named benchmark scenarios and the registry that holds them.
//!
//! A [`Scenario`] bundles everything needed to reproduce one curve of one
//! paper figure: a unique dotted name (`fig9.large.harris`), a short
//! description of the paper-expected shape, the id of the structure under
//! test, and a runner closure that performs one measurement window — a
//! body of the harness's one measurement loop ([`crate::runner::measure`]),
//! which returns the window's [`Measurement`] with its per-[`OpKind`]
//! counts. The runner builds the structure at the figure's own size; the
//! `bench_all` driver consumes the [`Registry`] of scenarios.
//!
//! The correctness tiers do not build structures through a scenario: they
//! iterate `optik_bench`'s subject table, which has one row per subject
//! id and builds each structure sized for the keys a tier uses. A
//! scenario's [`Scenario::subject_id`] names its table row (or, for a raw
//! loop with no structure, an id of its own), so registering a structure
//! takes one table row plus the scenario rows that benchmark it.
//!
//! Naming convention: `family.group-suffix.series` where
//!
//! - the **family** (text before the first `.`) identifies the figure or
//!   ablation (`fig9`, `ablate-victim`, ...) — `bench_all fig9` runs one;
//! - the **group** (everything before the last `.`) identifies one table:
//!   scenarios sharing a group become columns of the same thread sweep;
//! - the **series** (text after the last `.`) is the column label, normally
//!   the algorithm name.

use std::time::Duration;

use crate::api::{ConcurrentQueue, ConcurrentSet, ConcurrentStack};
use crate::latency::{LatencyRecorder, OpKind};
use crate::runner::{run_queue_workload, run_set_workload, run_stack_workload};
use crate::workload::Workload;

/// Parameters for one measurement window of a scenario.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock measurement window.
    pub duration: Duration,
    /// Seed for workload generation and the initial fill.
    pub seed: u64,
    /// Whether to collect per-operation latency samples.
    pub record_latency: bool,
}

/// The result of one measurement window.
#[derive(Debug)]
pub struct Measurement {
    /// Operations completed across all threads.
    pub ops: u64,
    /// Wall-clock time the window actually took.
    pub wall: Duration,
    /// Latency samples (empty unless requested).
    pub latency: LatencyRecorder,
    /// Operations counted per [`OpKind`], indexed by `kind as usize`
    /// (the timed single-key operations of [`crate::runner::measure`]).
    pub kinds: [u64; 6],
    /// Scenario-specific extra metrics (e.g. `cas_per_validation`,
    /// `cache_hit_pct`), reported alongside throughput.
    pub extra: Vec<(String, f64)>,
}

impl Measurement {
    /// A measurement with only an operation count and a window.
    pub fn from_ops(ops: u64, wall: Duration) -> Self {
        Self {
            ops,
            wall,
            latency: LatencyRecorder::new(),
            kinds: [0; 6],
            extra: Vec::new(),
        }
    }

    /// Operations of `kind` the window completed.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.kinds[kind as usize]
    }

    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64().max(1e-12) / 1e6
    }

    /// Attaches an extra named metric (builder style).
    pub fn with_extra(mut self, key: &str, value: f64) -> Self {
        self.extra.push((key.to_string(), value));
        self
    }
}

type Runner = Box<dyn Fn(&RunSpec) -> Measurement + Send + Sync>;

/// One named benchmark scenario (see the module docs for naming rules).
pub struct Scenario {
    name: String,
    group: String,
    series: String,
    about: String,
    subject_id: String,
    runner: Runner,
}

impl Scenario {
    /// Creates a fully custom scenario.
    ///
    /// `subject_id` identifies the *implementation* under test (e.g.
    /// `list/harris`); scenarios of the same implementation across
    /// different workloads share it.
    ///
    /// # Panics
    ///
    /// Panics if `name` contains no `.` separator.
    pub fn custom(
        name: &str,
        about: &str,
        subject_id: &str,
        runner: impl Fn(&RunSpec) -> Measurement + Send + Sync + 'static,
    ) -> Self {
        let (group, series) = name
            .rsplit_once('.')
            .unwrap_or_else(|| panic!("scenario name `{name}` needs a `group.series` form"));
        Self {
            name: name.to_string(),
            group: group.to_string(),
            series: series.to_string(),
            about: about.to_string(),
            subject_id: subject_id.to_string(),
            runner: Box::new(runner),
        }
    }

    /// The paper's set microbenchmark on a stateless-handle structure:
    /// build, fill to the workload's initial size, run the mixed workload.
    pub fn set<S: ConcurrentSet + 'static>(
        name: &str,
        about: &str,
        subject_id: &str,
        workload: Workload,
        make: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        let w = workload;
        Self::custom(name, about, subject_id, move |spec| {
            let set = make();
            w.initial_fill(spec.seed, |k, v| set.insert(k, v));
            run_set_workload(spec, &w, |_| &set)
        })
    }

    /// The paper's queue microbenchmark: prefill, then an
    /// `enqueue_pct`/dequeue mix.
    pub fn queue<Q: ConcurrentQueue + 'static>(
        name: &str,
        about: &str,
        subject_id: &str,
        prefill: u64,
        enqueue_pct: u32,
        make: impl Fn() -> Q + Send + Sync + 'static,
    ) -> Self {
        Self::custom(name, about, subject_id, move |spec| {
            let q = make();
            for i in 0..prefill {
                q.enqueue(i);
            }
            run_queue_workload(spec, &q, enqueue_pct)
        })
    }

    /// The §5.5 stack microbenchmark: prefill, then a `push_pct`/pop mix.
    pub fn stack<S: ConcurrentStack + 'static>(
        name: &str,
        about: &str,
        subject_id: &str,
        prefill: u64,
        push_pct: u32,
        make: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        Self::custom(name, about, subject_id, move |spec| {
            let s = make();
            for i in 0..prefill {
                s.push(i);
            }
            run_stack_workload(spec, &s, push_pct)
        })
    }

    /// Unique dotted name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table identity (name minus the final series segment).
    pub fn group(&self) -> &str {
        &self.group
    }

    /// Column label within the group.
    pub fn series(&self) -> &str {
        &self.series
    }

    /// One-line description including the paper-expected shape.
    pub fn about(&self) -> &str {
        &self.about
    }

    /// Family: the figure/ablation this scenario belongs to.
    pub fn family(&self) -> &str {
        self.name.split('.').next().expect("non-empty name")
    }

    /// Implementation identity shared across workloads: the subject
    /// table row that builds this structure for the correctness tiers.
    pub fn subject_id(&self) -> &str {
        &self.subject_id
    }

    /// Runs one measurement window.
    pub fn run(&self, spec: &RunSpec) -> Measurement {
        (self.runner)(spec)
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("subject_id", &self.subject_id)
            .finish()
    }
}

/// An ordered collection of uniquely named scenarios.
#[derive(Debug, Default)]
pub struct Registry {
    scenarios: Vec<Scenario>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a scenario.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — every scenario must be addressable.
    pub fn register(&mut self, scenario: Scenario) {
        assert!(
            !self.scenarios.iter().any(|s| s.name == scenario.name),
            "duplicate scenario name `{}`",
            scenario.name
        );
        self.scenarios.push(scenario);
    }

    /// All scenarios, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Looks up a scenario by exact name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Distinct groups, in first-appearance order.
    pub fn groups(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.scenarios {
            if !out.contains(&s.group.as_str()) {
                out.push(&s.group);
            }
        }
        out
    }

    /// Distinct families, in first-appearance order.
    pub fn families(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.scenarios {
            let f = s.family();
            if !out.contains(&f) {
                out.push(f);
            }
        }
        out
    }

    /// Scenarios whose group equals `group`, in registration order.
    pub fn in_group(&self, group: &str) -> Vec<&Scenario> {
        self.scenarios.iter().filter(|s| s.group == group).collect()
    }

    /// Scenarios matched by any of `patterns`: a pattern selects a scenario
    /// if it equals the name exactly or is a dot-boundary prefix of it
    /// (`fig9` matches `fig9.large.harris`; `fig1` does not match
    /// `fig10.medium.optik`). An empty pattern list selects everything.
    pub fn select(&self, patterns: &[String]) -> Vec<&Scenario> {
        if patterns.is_empty() {
            return self.scenarios.iter().collect();
        }
        self.scenarios
            .iter()
            .filter(|s| {
                patterns.iter().any(|p| {
                    s.name == *p
                        || (s.name.starts_with(p.as_str())
                            && s.name.as_bytes().get(p.len()) == Some(&b'.'))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    struct MutexSet(Mutex<BTreeMap<u64, u64>>);
    impl MutexSet {
        fn new() -> Self {
            Self(Mutex::new(BTreeMap::new()))
        }
    }
    impl ConcurrentSet for MutexSet {
        fn search(&self, key: u64) -> Option<u64> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn insert(&self, key: u64, val: u64) -> bool {
            let mut m = self.0.lock().unwrap();
            if let std::collections::btree_map::Entry::Vacant(e) = m.entry(key) {
                e.insert(val);
                true
            } else {
                false
            }
        }
        fn delete(&self, key: u64) -> Option<u64> {
            self.0.lock().unwrap().remove(&key)
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    fn tiny_spec() -> RunSpec {
        RunSpec {
            threads: 2,
            duration: Duration::from_millis(10),
            seed: 7,
            record_latency: false,
        }
    }

    #[test]
    fn set_scenario_runs_and_reports_ops() {
        let s = Scenario::set(
            "figx.small.mutex",
            "baseline",
            "set/mutex",
            Workload::paper(32, 20, false),
            MutexSet::new,
        );
        assert_eq!(s.group(), "figx.small");
        assert_eq!(s.series(), "mutex");
        assert_eq!(s.family(), "figx");
        let m = s.run(&tiny_spec());
        assert!(m.ops > 0);
        assert!(m.mops() > 0.0);
    }

    #[test]
    fn registry_rejects_duplicates_and_selects_by_prefix() {
        let mut r = Registry::new();
        for name in ["fig1.a.x", "fig1.a.y", "fig1.b.x", "fig10.a.x"] {
            r.register(Scenario::custom(name, "", "none", |_spec| {
                Measurement::from_ops(1, Duration::from_millis(1))
            }));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.groups(), vec!["fig1.a", "fig1.b", "fig10.a"]);
        assert_eq!(r.families(), vec!["fig1", "fig10"]);
        assert_eq!(r.in_group("fig1.a").len(), 2);
        // Dot-boundary prefix: `fig1` must not catch `fig10.*`.
        assert_eq!(r.select(&["fig1".into()]).len(), 3);
        assert_eq!(r.select(&["fig1.a.x".into()]).len(), 1);
        assert_eq!(r.select(&[]).len(), 4);
        assert!(r.get("fig1.a.x").is_some());
        assert!(r.get("nope").is_none());
    }

    #[test]
    fn select_takes_each_scenario_once_in_registration_order() {
        let mut r = Registry::new();
        for name in ["b.x.1", "a.x.1", "a.y.1", "a.x.12", "a.xy.1"] {
            r.register(Scenario::custom(name, "", "none", |_spec| {
                Measurement::from_ops(1, Duration::from_millis(1))
            }));
        }
        let names = |pats: &[&str]| -> Vec<&str> {
            let pats: Vec<String> = pats.iter().map(|p| p.to_string()).collect();
            r.select(&pats).iter().map(|s| s.name()).collect()
        };
        // Overlapping patterns (a family and one of its groups, a name
        // twice) still yield each scenario once, in registration order.
        assert_eq!(
            names(&["a.x", "a", "a.x.1", "a.x.1"]),
            vec!["a.x.1", "a.y.1", "a.x.12", "a.xy.1"]
        );
        // A string prefix that stops mid-component selects nothing extra:
        // `a.x` is not a prefix of `a.xy.1`, and `a.x.1` not of `a.x.12`.
        assert_eq!(names(&["a.x"]), vec!["a.x.1", "a.x.12"]);
        assert_eq!(names(&["a.x.1"]), vec!["a.x.1"]);
        assert!(names(&["a.", "c", "a.x.1.0"]).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name")]
    fn duplicate_name_panics() {
        let mut r = Registry::new();
        let mk = || {
            Scenario::custom("a.b", "", "none", |_s| {
                Measurement::from_ops(1, Duration::from_millis(1))
            })
        };
        r.register(mk());
        r.register(mk());
    }

    #[test]
    fn measurement_extra_builder() {
        let m = Measurement::from_ops(10, Duration::from_millis(5)).with_extra("cas", 1.5);
        assert_eq!(m.extra, vec![("cas".to_string(), 1.5)]);
    }
}
