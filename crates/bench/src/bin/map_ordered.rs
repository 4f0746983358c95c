//! Extension: the Figure-11 skip lists as value-carrying maps with
//! validated range scans.
//!
//! Workload (1024 entries, zipf a=0.9): 10% in-place upserts, 10%
//! removes, 2% 64-key range scans, the rest gets. Series: the five
//! Figure-11 skip lists, all through their `OrderedMap` impls.
//!
//! Expected shape: point-op ordering mirrors fig11; range scans add a
//! per-step validation cost to the OPTIK designs that fraser's marked
//! pointers get for free; `keys_per_range` reports observed window
//! density.
//!
//! Scenarios: `map.ordered.*` in the registry (`bench_all --list`).

fn main() {
    optik_bench::cli::run_family(
        "map",
        "ordered structures as value-carrying maps with range scans",
        false,
    );
}
