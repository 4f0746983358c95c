//! `kvbench`: the repository's outside-in benchmark. It drives only public
//! functions of the repository's crates and times them from outside.
//!
//! ```text
//! kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--no-ladder]
//! kvbench all [--quick] [--seed <n>]
//! kvbench ladder --seed <n> --seconds <s>
//! kvbench compare <base.json> <new.json>
//! kvbench check-names <BENCHMARK.json> <results.json>
//! ```
//!
//! Run it from the root of the repository: results go to `benchmark/out/`.

mod compare;
mod driver;
mod hist;
mod json;
mod ladder;
mod metrics;
mod rng;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use driver::{Mode, Oracle, Store, ThreadResult};
use json::{obj, Json};
use metrics::{Value, END_TO_END, PER_LAYER};
use stream::{Backend, Workload, VAL_XOR, WORKLOADS};

/// Fresh builds whose median is `setup_s`: three before the run and two
/// after it, so that one slow spell of the host cannot cover them all.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;
/// The QSBR backlog per thread above which the run fails: a coordinator
/// that pins the domain lets the backlog grow by millions per second.
const BACKLOG_LIMIT_PER_THREAD: u64 = 4096;

fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

fn write_out(name: &str, text: &str) -> Result<(), String> {
    let path = out_dir().join(name);
    std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::write(&path, text))
        .map_err(|e| {
            format!(
                "{}: {e} (run kvbench from the root of the repository)",
                path.display()
            )
        })
}

fn threads() -> usize {
    nproc().min(4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `--key value` pairs and bare `--flag`s.
fn flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .filter(|k| known.contains(k))
            .ok_or(format!("unknown argument `{a}`"))?;
        let bare = matches!(key, "quick" | "no-ladder");
        let value = if bare {
            String::new()
        } else {
            it.next().ok_or(format!("`{a}` needs a value"))?.clone()
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match f.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value `{v}` for --{key}")),
        None => default.ok_or(format!("--{key} is required")),
    }
}

/// How a run of `seconds` is cut: windows of about a second, short enough
/// that some lie clear of any disturbance of the host (see
/// `Value::best_decile_of`), long enough for a p99 of every op class.
fn windows_of(seconds: f64) -> (usize, f64) {
    let n = (seconds as usize).clamp(2, 60);
    (n, seconds / n as f64)
}

fn warmup_of(seconds: f64) -> f64 {
    (seconds / 4.0).min(2.0)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared in metrics.rs"))
        .1
}

/// Prints every metric by name with its unit, and returns them as the
/// `metrics` object of a row file.
fn report(metrics: &[(String, Value)]) -> Json {
    for (name, v) in metrics {
        println!(
            "{name:<40} {:>16.3} {:<6} min {:.3} max {:.3} n={}",
            v.value,
            unit_of(name),
            v.min,
            v.max,
            v.samples
        );
    }
    obj(metrics.iter().map(|(name, v)| {
        let fields = [
            ("value", v.value.into()),
            ("unit", unit_of(name).into()),
            ("min", v.min.into()),
            ("max", v.max.into()),
            ("samples", v.samples.into()),
            (
                "each",
                Json::Arr(v.each.iter().map(|&x| x.into()).collect()),
            ),
        ];
        (name.clone(), obj(fields))
    }))
}

/// The last line of a run: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Json) -> String {
    let metrics = obj(metrics.fields().iter().map(|(name, m)| {
        let pick = |k: &str| (k.to_string(), m.get(k).expect("report wrote it").clone());
        (name.clone(), Json::Obj(vec![pick("value"), pick("unit")]))
    }));
    obj([
        ("correct", Json::Bool(correct)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics),
    ])
    .compact()
}

struct RunArgs {
    seed: u64,
    seconds: f64,
    traced: bool,
    ladder: bool,
}

/// What the oracle found over a whole run, audit included.
struct Verdict {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

/// Adds the end-of-run checks to the workers' own counts. Every worker has
/// quiesced and exited, so `len` is exact, and so is the ledger of fresh
/// puts and successful removes.
fn audit(w: &Workload, results: &[ThreadResult], len: u64, backlog: u64) -> Verdict {
    let all = metrics::counts(results, 0..results[0].slots.len());
    let mut failed: u64 = results.iter().map(|t| t.violation_count).sum();
    let mut violations: Vec<String> = results
        .iter()
        .flat_map(|t| t.violations.iter().cloned())
        .collect();
    let want = (w.entries + all.put_fresh + all.batch_fresh) as i64
        - (all.remove_hits + all.batch_removed) as i64;
    if len as i64 != want {
        failed += (len as i64).abs_diff(want);
        violations.push(format!(
            "conservation: store holds {len} entries, the ledger says {want}"
        ));
    }
    if backlog >= results.len() as u64 * BACKLOG_LIMIT_PER_THREAD {
        failed += 1;
        violations.push(format!(
            "QSBR backlog {backlog} at the end of the last window: some registered thread never quiesces"
        ));
    }
    for (i, t) in results.iter().enumerate() {
        let filed: u64 = t.slots.iter().map(|s| s.counts.ops).sum();
        if filed != t.executed {
            failed += filed.abs_diff(t.executed);
            violations.push(format!(
                "thread {i} executed {} ops but filed {filed} under windows",
                t.executed
            ));
        }
    }
    Verdict {
        attempted: all.ops + 1,
        failed,
        violations,
    }
}

/// The end-to-end metrics of an untraced run, over windows `1..`.
fn end_to_end(
    results: &[ThreadResult],
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
) -> Vec<(String, Value)> {
    let measured = 1..results[0].slots.len();
    let tput: Vec<f64> = measured
        .clone()
        .map(|i| metrics::throughput(results, i))
        .collect();
    let (windows, setups) = (tput.len() as u64, setup_s.len() as u64);
    let mut values = vec![
        ("setup_s".into(), Value::median_of(setup_s, setups)),
        (
            "throughput_ops_s".into(),
            Value::best_decile_of(tput, true, windows),
        ),
    ];
    for (class, name) in ["get", "write"].into_iter().enumerate() {
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            let v = metrics::quantile_over(results, measured.clone(), class, q);
            values.push((format!("{name}_{label}_ns"), v));
        }
    }
    values.push(("peak_rss_mb".into(), Value::single(peak_rss_mb)));
    values
}

/// The workload's own per-layer metrics of a traced run: window 1 is the
/// untraced reference, window 2 the traced one.
fn per_layer(results: &[ThreadResult], retired: u64, backlog: u64) -> Vec<(String, Value)> {
    let ops = metrics::counts(results, 1..3).ops;
    let mut values = vec![
        (
            "reclaim.qsbr.retired_per_op".into(),
            Value::single(retired as f64 / ops as f64),
        ),
        (
            "reclaim.qsbr.backlog_end".into(),
            Value::single(backlog as f64),
        ),
    ];
    let multi = trace::CLASSES - 1;
    for (q, label) in [(0.5, "multi_p50_ns"), (0.99, "multi_p99_ns")] {
        values.push((
            label.into(),
            metrics::quantile_over(results, 1..2, multi, q),
        ));
    }
    for (class, name) in trace::CLASS_NAMES.iter().enumerate() {
        let v = metrics::quantile_over(results, 1..2, class, 0.999);
        values.push((format!("tail.{name}_p999_ns"), v));
    }
    let untraced = metrics::throughput(results, 1);
    for (name, v) in metrics::trace_metrics(results, 2, untraced) {
        values.push((name, Value::single(v)));
    }
    values
}

/// One workload in this process: set-up, warm-up, windows, audit, report.
fn run_workload<S: Store>(
    w: &Workload,
    a: &RunArgs,
    make: impl Fn(usize, u64) -> S,
) -> Result<bool, String> {
    let threads = threads();
    let oracle = Oracle {
        xor: if std::env::var_os("KVBENCH_BREAK_ORACLE").is_some() {
            !VAL_XOR
        } else {
            VAL_XOR
        },
    };

    // Set-up: stream generation, build and fill; each build is dropped
    // before the next so that they do not add up in RSS.
    let set_up = || {
        let t = Instant::now();
        let streams = driver::streams(w, a.seed, threads);
        let store = driver::build(w, a.seed, &make);
        (t.elapsed().as_secs_f64(), store, streams)
    };
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS_BEFORE {
        drop(built.take());
        let (seconds, store, streams) = set_up();
        setup_s.push(seconds);
        built = Some((store, streams));
    }
    let (store, streams) = built.expect("SETUPS_BEFORE > 0");
    let stream_fnv = format!("{:016x}", stream::fnv(&streams));

    let warmup_s = warmup_of(a.seconds);
    let (windows, window_s) = if a.traced {
        (2, a.seconds / 5.0)
    } else {
        windows_of(a.seconds)
    };
    let mut plan = vec![(Mode::Sampled, Duration::from_secs_f64(warmup_s))];
    plan.extend((0..windows).map(|i| {
        let mode = if a.traced && i == 1 {
            Mode::Traced
        } else {
            Mode::Sampled
        };
        (mode, Duration::from_secs_f64(window_s))
    }));
    println!("{}: {}", w.name, w.why);
    println!(
        "workload {} seed {} threads {threads} nproc {} stream_fnv {stream_fnv}: warm-up {warmup_s} s, {windows} windows of {window_s:.3} s{}",
        w.name,
        a.seed,
        nproc(),
        if a.traced { " (untraced reference, then traced)" } else { "" }
    );

    let qsbr = || reclaim::global().stats();
    let (mut qsbr_begin, mut qsbr_end) = (qsbr(), qsbr());
    let results = driver::run(&store, &streams, w.key_range(), &oracle, &plan, |window| {
        if window == 1 {
            qsbr_begin = qsbr();
        } else if window == plan.len() {
            qsbr_end = qsbr();
        }
    });
    let backlog = qsbr_end.retired - qsbr_end.freed;
    let verdict = audit(w, &results, store.len() as u64, backlog);

    let values = if a.traced {
        let mut values = per_layer(&results, qsbr_end.retired - qsbr_begin.retired, backlog);
        let logs: Vec<_> = results
            .iter()
            .map(|t| t.slots[2].spans.as_ref().expect("traced window"))
            .collect();
        write_out(
            &format!("trace-{}.json", w.name),
            &trace::chrome_trace(w.name, &logs),
        )?;
        println!(
            "trace of the first {} ops of each thread: benchmark/out/trace-{}.json",
            trace::KEEP,
            w.name
        );
        drop((store, streams, results));
        if a.ladder {
            let budget = Duration::from_secs_f64(a.seconds * 3.0 / 5.0);
            values.extend(ladder::run(a.seed, threads, budget));
        }
        values
    } else {
        let peak_rss_mb = peak_rss_mb();
        drop((store, streams));
        setup_s.extend((0..SETUPS_AFTER).map(|_| set_up().0));
        end_to_end(&results, setup_s, peak_rss_mb)
    };

    let metrics = report(&values);
    let Verdict {
        attempted,
        failed,
        violations,
    } = verdict;
    for v in &violations {
        println!("VIOLATION {v}");
    }
    let error_share = failed as f64 / attempted as f64;
    println!("attempted {attempted} failed {failed} error_share {error_share}");
    let row = obj([
        ("workload", w.name.into()),
        ("trace", (a.traced as u64).into()),
        ("seed", a.seed.into()),
        ("threads", (threads as u64).into()),
        ("windows", (windows as u64).into()),
        ("window_s", window_s.into()),
        ("warmup_s", warmup_s.into()),
        ("stream_fnv", stream_fnv.as_str().into()),
        ("correct", Json::Bool(failed == 0)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("error_share", error_share.into()),
        (
            "violations",
            Json::Arr(violations.iter().map(|v| v.as_str().into()).collect()),
        ),
        ("metrics", metrics.clone()),
    ]);
    write_out(
        &format!("row-{}-t{}.json", w.name, a.traced as u8),
        &row.pretty(),
    )?;
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    Ok(failed == 0)
}

fn single(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["workload", "seed", "seconds", "trace", "no-ladder"])?;
    let name: String = parsed(&f, "workload", None)?;
    let w = stream::workload(&name).ok_or(format!(
        "unknown workload `{name}`; the workloads are {:?}",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    ))?;
    let a = RunArgs {
        seed: parsed(&f, "seed", Some(42))?,
        seconds: parsed(&f, "seconds", Some(20.0))?,
        traced: parsed::<u8>(&f, "trace", Some(0))? != 0,
        ladder: !f.contains_key("no-ladder"),
    };
    if a.seconds.is_nan() || a.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    match w.backend {
        Backend::Hash { .. } => run_workload(w, &a, driver::hash_store),
        Backend::Ordered { .. } => run_workload(w, &a, driver::ordered_store),
    }
}

/// The ladder alone, in a process of its own (`all` runs it once).
fn ladder_cmd(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["seed", "seconds"])?;
    let seed = parsed(&f, "seed", Some(42))?;
    let seconds: f64 = parsed(&f, "seconds", None)?;
    let values = ladder::run(seed, threads(), Duration::from_secs_f64(seconds));
    write_out("ladder.json", &report(&values).pretty())?;
    Ok(true)
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload in a fresh process each (untraced, then traced), the
/// ladder in one more, and `benchmark/out/results.json` from their row files.
fn all(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["quick", "seed"])?;
    let quick = f.contains_key("quick");
    let seed: u64 = parsed(&f, "seed", Some(42))?;
    // Full: 30 windows of 1 s, a 5 s reference and a 5 s traced window, 2 s
    // per rung. Quick is a smoke run: its numbers mean nothing.
    let (untraced_s, traced_s, ladder_s) = if quick {
        (2.0, 2.5, 6.0)
    } else {
        (30.0, 25.0, 60.0)
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = |args: &str| -> Result<bool, String> {
        println!("--- kvbench {args}");
        let status = Command::new(&exe)
            .args(args.split_whitespace())
            .status()
            .map_err(|e| e.to_string())?;
        Ok(status.success())
    };
    let read = |name: &str| -> Result<Json, String> {
        let path = out_dir().join(name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };

    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let mut parts = Vec::new();
        for (trace, seconds) in [(0, untraced_s), (1, traced_s)] {
            let ladder = if trace == 1 { " --no-ladder" } else { "" };
            ok &= child(&format!(
                "--workload {} --seed {seed} --seconds {seconds} --trace {trace}{ladder}",
                w.name
            ))?;
            parts.push(read(&format!("row-{}-t{trace}.json", w.name))?);
        }
        // One row per workload: the untraced process's end-to-end metrics, the
        // traced process's per-layer metrics, and the oracle's verdict on both.
        let sum = |key: &str| parts.iter().filter_map(|p| p.get(key)?.num()).sum::<f64>();
        let violations = parts
            .iter()
            .flat_map(|p| p.get("violations").map_or(&[][..], Json::arr))
            .cloned()
            .collect();
        let of = |part: usize, key: &str| parts[part].get(key).cloned().unwrap_or(Json::Null);
        rows.push(obj([
            ("workload", w.name.into()),
            ("stream_fnv", of(0, "stream_fnv")),
            ("attempted", sum("attempted").into()),
            ("failed", sum("failed").into()),
            ("error_share", (sum("failed") / sum("attempted")).into()),
            ("violations", Json::Arr(violations)),
            ("end_to_end", of(0, "metrics")),
            ("per_layer", of(1, "metrics")),
        ]));
    }
    ok &= child(&format!("ladder --seed {seed} --seconds {ladder_s}"))?;
    let ladder = read("ladder.json")?;

    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let (windows, window_s) = windows_of(untraced_s);
    let results = obj([
        (
            "meta",
            obj([
                ("nproc", Json::from(nproc() as u64)),
                ("threads", (threads() as u64).into()),
                ("cpu_model", cpu.as_str().into()),
                ("rustc", first_line("rustc", &["--version"]).as_str().into()),
                (
                    "git_commit",
                    first_line("git", &["rev-parse", "HEAD"]).as_str().into(),
                ),
                ("seed", seed.into()),
                ("quick", Json::Bool(quick)),
                ("windows", (windows as u64).into()),
                ("window_s", window_s.into()),
                ("warmup_s", warmup_of(untraced_s).into()),
                ("traced_window_s", (traced_s / 5.0).into()),
                ("ladder_s", ladder_s.into()),
            ]),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.0.into()),
                            ("unit", m.1.into()),
                            ("better", Json::from(m.2)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("rows", Json::Arr(rows)),
        ("ladder", ladder),
    ]);
    write_out("results.json", &results.pretty())?;
    println!("--- wrote benchmark/out/results.json; correct: {ok}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("ladder") => ladder_cmd(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        Some("check-names") => compare::check_names(&args[1..]),
        _ => single(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("kvbench: {e}");
            ExitCode::from(2)
        }
    }
}
