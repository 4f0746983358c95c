//! `compare`: the A/A check now and the parent-versus-change check later.
//! `check-names`: no drift between `BENCHMARK.json` and a results file.

use std::collections::BTreeSet;

use crate::json::{self, Json};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn field<'a>(v: &'a Json, key: &str, at: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or(format!("{at}: no `{key}`"))
}

fn number(v: &Json, key: &str, at: &str) -> Result<f64, String> {
    field(v, key, at)?
        .num()
        .ok_or(format!("{at}: `{key}` is not a number"))
}

fn row<'a>(results: &'a Json, workload: &str) -> Option<&'a Json> {
    results
        .get("rows")?
        .arr()
        .iter()
        .find(|r| r.get("workload").and_then(Json::str) == Some(workload))
}

/// Applies each end-to-end metric's bound to every workload row of two
/// results files. A pair is `unresolved`, not passed, when the quartiles of
/// either side's own windows lie further apart than the bound: that run was
/// disturbed and is measured again. `Ok(false)` on a regression.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [base_path, new_path] = args else {
        return Err("usage: kvbench compare <base.json> <new.json>".into());
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    let (base_meta, new_meta) = (
        field(&base, "meta", base_path)?,
        field(&new, "meta", new_path)?,
    );
    for key in [
        "threads", "seed", "windows", "window_s", "warmup_s", "quick",
    ] {
        let (a, b) = (
            field(base_meta, key, base_path)?,
            field(new_meta, key, new_path)?,
        );
        if a != b {
            return Err(format!(
                "the files are not comparable: `{key}` is {} in {base_path} and {} in {new_path}",
                a.compact(),
                b.compact()
            ));
        }
    }

    let (mut regressions, mut unresolved) = (0, 0);
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>7} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "spr.A", "spr.B", "bound"
    );
    for base_row in field(&base, "rows", base_path)?.arr() {
        let name = field(base_row, "workload", base_path)?
            .str()
            .unwrap_or_default();
        let new_row = row(&new, name).ok_or(format!("{new_path}: no row for workload `{name}`"))?;
        for (r, path) in [(base_row, base_path), (new_row, new_path)] {
            if number(r, "failed", path)? > 0.0 {
                println!(
                    "{name:<22} {path}: {} ops failed the oracle",
                    number(r, "failed", path)?
                );
                regressions += 1;
            }
        }
        for m in field(&base, "end_to_end", base_path)?.arr() {
            let metric = field(m, "name", base_path)?.str().unwrap_or_default();
            let bound = number(m, "bound", base_path)?;
            let lower_is_better = field(m, "better", base_path)?.str() == Some("lower");
            let side = |r: &Json, path: &str| -> Result<(f64, f64), String> {
                let at = format!("{path}: {name}.{metric}");
                let v = field(field(r, "end_to_end", &at)?, metric, &at)?;
                let mut each: Vec<f64> = field(v, "each", &at)?
                    .arr()
                    .iter()
                    .filter_map(Json::num)
                    .collect();
                each.sort_by(f64::total_cmp);
                let value = number(v, "value", &at)?;
                let quartiles = each[each.len() * 3 / 4] - each[each.len() / 4];
                Ok((value, quartiles / value))
            };
            let ((a, spread_a), (b, spread_b)) =
                (side(base_row, base_path)?, side(new_row, new_path)?);
            let worse_by = if lower_is_better {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            let verdict = if spread_a > bound || spread_b > bound {
                unresolved += 1;
                "unresolved"
            } else if worse_by > bound {
                regressions += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{name:<22} {metric:<18} {a:>14.3} {b:>14.3} {:>7.4} {spread_a:>7.4} {spread_b:>7.4} {bound:>6.2}  {verdict}",
                b / a
            );
        }
    }
    println!("{regressions} regressions, {unresolved} unresolved (the quartiles of a side's own windows lie further apart than the bound)");
    Ok(regressions == 0)
}

fn names(items: &[Json]) -> BTreeSet<String> {
    items
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::str))
        .map(String::from)
        .collect()
}

fn keys(v: Option<&Json>) -> BTreeSet<String> {
    v.map(|v| v.fields().iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

fn same(what: &str, declared: &BTreeSet<String>, found: &BTreeSet<String>) -> Result<(), String> {
    if declared == found {
        return Ok(());
    }
    Err(format!(
        "{what}: declared but not reported {:?}; reported but not declared {:?}",
        declared.difference(found).collect::<Vec<_>>(),
        found.difference(declared).collect::<Vec<_>>()
    ))
}

/// The workload and metric names, units, directions and bounds of a results
/// file are exactly those `BENCHMARK.json` declares.
pub fn check_names(args: &[String]) -> Result<bool, String> {
    let [manifest_path, results_path] = args else {
        return Err("usage: kvbench check-names <BENCHMARK.json> <results.json>".into());
    };
    let (manifest, results) = (load(manifest_path)?, load(results_path)?);
    for section in ["end_to_end", "per_layer"] {
        let (declared, reported) = (
            field(&manifest, section, manifest_path)?,
            field(&results, section, results_path)?,
        );
        if declared != reported {
            same(
                &format!("`{section}` names"),
                &names(declared.arr()),
                &names(reported.arr()),
            )?;
            return Err(format!("`{section}`: a unit, direction or bound differs between {manifest_path} and {results_path}"));
        }
    }
    let rows = field(&results, "rows", results_path)?.arr();
    let workloads: BTreeSet<String> = rows
        .iter()
        .filter_map(|r| r.get("workload").and_then(Json::str))
        .map(String::from)
        .collect();
    same(
        "workloads",
        &names(field(&manifest, "workloads", manifest_path)?.arr()),
        &workloads,
    )?;
    let ladder = keys(results.get("ladder"));
    for r in rows {
        let at = r.get("workload").and_then(Json::str).unwrap_or("?");
        same(
            &format!("{at}: end-to-end metrics"),
            &names(manifest.get("end_to_end").expect("checked").arr()),
            &keys(r.get("end_to_end")),
        )?;
        let per_layer = keys(r.get("per_layer"));
        if let Some(twice) = per_layer.intersection(&ladder).next() {
            return Err(format!(
                "{at}: `{twice}` is reported by the row and by the ladder"
            ));
        }
        let reported = per_layer.union(&ladder).cloned().collect();
        same(
            &format!("{at}: per-layer metrics"),
            &names(manifest.get("per_layer").expect("checked").arr()),
            &reported,
        )?;
    }
    println!(
        "{results_path} reports exactly the {} workloads and {} metrics of {manifest_path}",
        workloads.len(),
        names(manifest.get("end_to_end").expect("checked").arr()).len()
            + names(manifest.get("per_layer").expect("checked").arr()).len()
    );
    Ok(true)
}
