//! The `optik-kv` sharded key-value store: system-level workloads over the
//! OPTIK map backends.
//!
//! Workloads (8 shards unless ablated): read-heavy zipfian (90% gets),
//! write-heavy uniform (60% updates), batched (8-key multi-get/multi-put
//! with sorted-shard acquisition), snapshot scans (1% validated scans under
//! 20% updates), a small store over bucketed array-map shards, and a 1..32
//! shard-count ablation.
//!
//! Expected shapes: gets are lock-free so read-heavy scales with readers;
//! write scaling follows min(threads, shards); batching amortizes shard
//! locking; scans dip but do not collapse update throughput.
//!
//! Scenarios: `kv.*` in the registry (`bench_all --list`).

fn main() {
    optik_bench::cli::run_family("kv", "sharded key-value store workloads", true);
}
