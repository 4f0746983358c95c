//! `bench_all` — run any subset of the scenario registry, write JSON
//! reports, and compare against a baseline.
//!
//! ```text
//! bench_all --list                 # enumerate every registered scenario
//! bench_all                        # run everything, write BENCH_<family>.json
//! bench_all fig9 fig12.stable      # run by family/group/scenario name
//! bench_all fig9 --json out.json   # single combined report instead
//! bench_all --baseline BENCH_baseline.json --tolerance 25
//!                                  # exit 1 on >25% throughput regression
//! bench_all --digest               # regenerate EXPERIMENTS.md from the
//!                                  # BENCH_*.json files in --out-dir
//! bench_all kv --probe             # require probe internals in reports
//!                                  # (build with --features probe)
//! bench_all kv --trace-out traces/ # dump Chrome trace-event JSON spans
//! ```
//!
//! Sweep knobs come from the usual environment variables
//! (`BENCH_THREADS`, `BENCH_DUR_MS`, `BENCH_REPS`, `BENCH_SEED`); the
//! machine class recorded in the report can be overridden with
//! `BENCH_MACHINE`.

use std::path::PathBuf;
use std::process::ExitCode;

use optik_bench::cli;
use optik_bench::{scenarios, subjects};
use optik_harness::driver::SweepConfig;
use optik_harness::report::{compare, Report};
use optik_harness::table::Table;

struct Args {
    patterns: Vec<String>,
    ab: Option<(String, String)>,
    list: bool,
    digest: bool,
    json: Option<PathBuf>,
    out_dir: PathBuf,
    baseline: Option<PathBuf>,
    tolerance_pct: f64,
    latency: bool,
    probe: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_all [PATTERN ...] [--list] [--json FILE] [--out-dir DIR]\n\
         \x20                [--baseline FILE] [--tolerance PCT] [--no-latency]\n\
         \x20                [--digest] [--probe] [--trace-out DIR]\n\
         \x20                [--ab LEFT,RIGHT]\n\
         \n\
         PATTERN selects scenarios by exact name or dot-boundary prefix\n\
         (family or group); no patterns = the whole registry.\n\
         --ab LEFT,RIGHT runs an interleaved A/B comparison of two exact\n\
         scenario names: BENCH_REPS pairs per thread count, each run back\n\
         to back (left first on even pairs, right first on odd ones),\n\
         reporting the median of the per-pair right/left throughput ratios\n\
         (drift cancels per pair) and the pairs right won (ties count for\n\
         neither). Runs nothing else and writes no reports.\n\
         --digest runs no benchmarks: it loads every BENCH_*.json in\n\
         --out-dir (newest first, so re-recorded reports win duplicate\n\
         scenarios; an explicit --baseline outranks all) and regenerates\n\
         EXPERIMENTS.md from them.\n\
         --probe and --trace-out need a probe-enabled build\n\
         (`cargo run -p optik-bench --features probe --bin bench_all`):\n\
         --probe fails the run unless every kv.*/fig10.* scenario report\n\
         carries probe internals; --trace-out DIR writes the recorded\n\
         spans as Chrome trace-event JSON (Perfetto-loadable)."
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        patterns: Vec::new(),
        ab: None,
        list: false,
        digest: false,
        json: None,
        out_dir: PathBuf::from("."),
        baseline: None,
        tolerance_pct: 25.0,
        latency: true,
        probe: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => args.list = true,
            "--ab" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (l, r) = spec.split_once(',').unwrap_or_else(|| usage());
                if l.is_empty() || r.is_empty() {
                    usage();
                }
                args.ab = Some((l.to_string(), r.to_string()));
            }
            "--digest" => args.digest = true,
            "--json" => args.json = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--out-dir" => {
                args.out_dir = PathBuf::from(it.next().unwrap_or_else(|| usage()));
            }
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--tolerance" => {
                args.tolerance_pct = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--no-latency" => args.latency = false,
            "--probe" => args.probe = true,
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--help" | "-h" => usage(),
            p if p.starts_with('-') => usage(),
            p => args.patterns.push(p.to_string()),
        }
    }
    args
}

/// `--digest`: load reports, render `EXPERIMENTS.md`, run nothing.
fn write_digest(args: &Args, reg: &optik_harness::Registry) -> ExitCode {
    let mut reports = Vec::new();
    // The baseline (if given) goes first: on duplicate scenario names the
    // digest keeps the first occurrence, so the checked-in numbers win.
    if let Some(path) = &args.baseline {
        match Report::load(path) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("failed to load {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let mut json_files: Vec<PathBuf> = match std::fs::read_dir(&args.out_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.out_dir.display());
            return ExitCode::FAILURE;
        }
    };
    // Newest first: the digest keeps the first occurrence of each
    // scenario, so a freshly recorded BENCH_fig5.json must beat a stale
    // checked-in BENCH_baseline.json sitting in the same directory (a
    // filename sort would put "baseline" before most families). An
    // explicit --baseline still outranks everything (loaded above).
    json_files.sort_by_key(|p| {
        std::cmp::Reverse(
            std::fs::metadata(p)
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH),
        )
    });
    // Canonicalized so `--baseline BENCH_baseline.json` matches the
    // `./BENCH_baseline.json` that read_dir yields for the default
    // out-dir (textual path equality would load the baseline twice).
    let baseline_canon = args.baseline.as_deref().and_then(|p| p.canonicalize().ok());
    for path in &json_files {
        if baseline_canon.is_some() && path.canonicalize().ok() == baseline_canon {
            continue; // already loaded first
        }
        match Report::load(path) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("failed to load {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if reports.is_empty() {
        eprintln!(
            "no BENCH_*.json reports in {} (and no --baseline); run bench_all first",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let doc = optik_bench::digest::render(&reports, reg);
    let out = args.out_dir.join("EXPERIMENTS.md");
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("failed to write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} reports, {} scenarios)",
        out.display(),
        reports.len(),
        reports.iter().map(|r| r.scenarios.len()).sum::<usize>()
    );
    ExitCode::SUCCESS
}

/// `--ab LEFT,RIGHT`: interleaved pairwise comparison of two scenarios.
///
/// Every claimed speedup in EXPERIMENTS.md comes through here: pairs run
/// back to back under identical seeds, so the median per-pair ratio is
/// robust against the slow drift that separate sweeps absorb into their
/// absolute numbers.
fn run_ab(left_name: &str, right_name: &str, reg: &optik_harness::Registry) -> ExitCode {
    let find = |name: &str| reg.iter().find(|s| s.name() == name);
    let (left, right) = match (find(left_name), find(right_name)) {
        (Some(l), Some(r)) => (l, r),
        (l, r) => {
            for (name, found) in [(left_name, l.is_some()), (right_name, r.is_some())] {
                if !found {
                    eprintln!("--ab: no scenario named {name:?}; try --list");
                }
            }
            return ExitCode::from(2);
        }
    };
    let cfg = SweepConfig::from_env();
    cli::banner("bench_all --ab", "interleaved A/B comparison", &cfg);
    println!("A (left):  {}\nB (right): {}", left.name(), right.name());
    println!(
        "{} alternating pairs per thread count; ratio = median of per-pair B/A\n",
        cfg.reps
    );
    let points = optik_harness::driver::run_ab(left, right, &cfg);
    let mut t = Table::new([
        "threads",
        "A (Mops/s)",
        "B (Mops/s)",
        "B/A (median of pairs)",
        "B wins",
    ]);
    for p in &points {
        t.row([
            p.threads.to_string(),
            format!("{:.3}", p.left_mops),
            format!("{:.3}", p.right_mops),
            format!("{:.3}x", p.ratio),
            format!("{}/{}", p.wins, p.pairs),
        ]);
    }
    t.print();
    // Geomean across thread counts: one headline number per A/B claim.
    let geomean = (points.iter().map(|p| p.ratio.max(1e-12).ln()).sum::<f64>()
        / points.len().max(1) as f64)
        .exp();
    println!("\ngeomean B/A across thread counts: {geomean:.3}x");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    let reg = scenarios::registry();

    if args.list {
        let mut t = Table::new(["scenario", "subject", "id", "description"]);
        for s in reg.iter() {
            t.row([
                s.name(),
                subjects::kind(s.subject_id()),
                s.subject_id(),
                s.about(),
            ]);
        }
        t.print();
        println!("\n{} scenarios registered", reg.len());
        return ExitCode::SUCCESS;
    }

    if args.digest {
        return write_digest(&args, &reg);
    }

    if let Some((left, right)) = &args.ab {
        return run_ab(left, right, &reg);
    }

    if (args.probe || args.trace_out.is_some()) && !optik_probe::enabled() {
        eprintln!(
            "--probe/--trace-out need a probe-enabled build; rerun as\n  \
             cargo run --release -p optik-bench --features probe --bin bench_all -- ..."
        );
        return ExitCode::from(2);
    }

    // The per-family reports land in --out-dir: make it before the sweep,
    // so a bad path fails in a moment instead of after the whole run.
    if args.json.is_none() {
        if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
            eprintln!("cannot create {}: {e}", args.out_dir.display());
            return ExitCode::FAILURE;
        }
    }

    let cfg = SweepConfig::from_env();
    cli::banner("bench_all", "unified scenario sweep", &cfg);
    let selected = reg.select(&args.patterns);
    if selected.is_empty() {
        eprintln!("no scenarios match {:?}; try --list", args.patterns);
        return ExitCode::from(2);
    }
    println!("{} scenarios selected\n", selected.len());
    let reports = cli::run_selection(&reg, &args.patterns, &cfg, args.latency);

    // `--probe` is a contract, not a hint: the kv engine and the OPTIK
    // hashtable (fig10) are hook-dense, so a scenario of theirs with no
    // internals means the probe layer silently fell off.
    if args.probe {
        let silent: Vec<&str> = reports
            .iter()
            .filter(|s| s.scenario.starts_with("kv.") || s.scenario.starts_with("fig10."))
            .filter(|s| s.points.iter().all(|p| p.internals.is_empty()))
            .map(|s| s.scenario.as_str())
            .collect();
        if !silent.is_empty() {
            eprintln!(
                "error: --probe ran but {} scenarios recorded no internals:",
                silent.len()
            );
            for s in &silent {
                eprintln!("  {s}");
            }
            return ExitCode::FAILURE;
        }
        let with = reports
            .iter()
            .filter(|s| s.points.iter().any(|p| !p.internals.is_empty()))
            .count();
        println!(
            "probe: internals recorded for {with}/{} scenarios",
            reports.len()
        );
    }

    // `--trace-out`: drain the span rings accumulated across the whole
    // run into one Chrome trace-event file (load in Perfetto or
    // chrome://tracing).
    if let Some(dir) = &args.trace_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let path = dir.join("trace_events.json");
        match optik_probe::trace::drain_json() {
            Some(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("failed to write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {} (Chrome trace-event format)", path.display());
            }
            None => println!(
                "trace: no spans recorded (selected scenarios ran no \
                 migrations, TTL sweeps, or grace periods)"
            ),
        }
    }

    let machine = std::env::var("BENCH_MACHINE").unwrap_or_else(|_| Report::machine_class());
    let combined = Report::new(&machine, &cfg, reports);

    // Write artifacts: one combined file, or one per family.
    if let Some(path) = &args.json {
        if let Err(e) = combined.save(path) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    } else {
        let mut families: Vec<&str> = Vec::new();
        for s in &combined.scenarios {
            let fam = s.scenario.split('.').next().expect("non-empty");
            if !families.contains(&fam) {
                families.push(fam);
            }
        }
        for fam in families {
            let sub = Report::new(
                &machine,
                &cfg,
                combined
                    .scenarios
                    .iter()
                    .filter(|s| s.scenario.split('.').next() == Some(fam))
                    .cloned()
                    .collect(),
            );
            let path = args.out_dir.join(format!("BENCH_{fam}.json"));
            if let Err(e) = sub.save(&path) {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
    }

    // Baseline comparison.
    if let Some(path) = &args.baseline {
        let baseline = match Report::load(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("failed to load baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let cmp = compare(&combined, &baseline);
        let tol = args.tolerance_pct / 100.0;
        // Absolute Mops/s only compare meaningfully on the same machine
        // class: cross-class deltas measure hardware, not code. On a
        // mismatch the gate reports regressions but does not fail.
        let same_machine = baseline.machine == machine;
        println!();
        println!(
            "baseline: {} ({} matched points, geomean ratio {:.3})",
            path.display(),
            cmp.deltas.len(),
            cmp.geomean_ratio()
        );
        if !same_machine {
            println!(
                "warning: baseline machine class differs\n  baseline: {}\n  current:  {}\n\
                 cross-class throughput deltas measure hardware, not code; the\n\
                 regression gate is advisory until the baseline is re-recorded\n\
                 on this machine class",
                baseline.machine, machine
            );
        }
        if !cmp.missing_in_current.is_empty() {
            if args.patterns.is_empty() {
                // A full-registry run must cover everything the baseline
                // covers: a missing scenario means regression protection
                // silently shrank (rename/delete without re-recording).
                eprintln!(
                    "error: {} baseline scenarios missing from this full run \
                     (renamed/deleted without re-recording the baseline?):",
                    cmp.missing_in_current.len()
                );
                for s in &cmp.missing_in_current {
                    eprintln!("  {s}");
                }
                return ExitCode::FAILURE;
            }
            println!(
                "note: {} baseline scenarios not in this subset run",
                cmp.missing_in_current.len()
            );
        }
        let regressions = cmp.regressions(tol);
        if regressions.is_empty() {
            println!("no regressions beyond {:.0}% tolerance", args.tolerance_pct);
        } else {
            println!(
                "{} regressions beyond {:.0}% tolerance:",
                regressions.len(),
                args.tolerance_pct
            );
            let mut t = Table::new(["scenario", "threads", "baseline", "current", "ratio"]);
            for d in &regressions {
                t.row([
                    d.scenario.clone(),
                    d.threads.to_string(),
                    format!("{:.3}", d.baseline_mops),
                    format!("{:.3}", d.current_mops),
                    format!("{:.2}x", d.ratio()),
                ]);
            }
            t.print();
            if same_machine {
                return ExitCode::FAILURE;
            }
            println!("(advisory only: machine class mismatch — see warning above)");
        }
    }
    ExitCode::SUCCESS
}
