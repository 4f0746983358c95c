//! # optik-kv — a sharded key-value store built on the OPTIK pattern
//!
//! The first *system* layer of the reproduction: where the other crates
//! reproduce the paper's individual data structures, this one composes
//! them into a service-shaped store — the ROADMAP's step from
//! "reproduction" toward "production-scale system".
//!
//! The store is a **policy-layered engine**: routing, TTL, and
//! rebalancing are separable layers over the same sharded core.
//!
//! ```text
//!             ┌──────────────────────────────────────────────────────┐
//!  put(k,v) ─▶│ KvStore                                              │
//!  get(k)   ─▶│  ┌────────────────────────────────────────────────┐  │
//!             │  │ ShardPolicy (policy.rs)                        │  │
//!             │  │  hash spread  |  partition table ⟨OPTIK lock⟩  │◀─┼── rebalance.rs
//!             │  └──────────────────────┬─────────────────────────┘  │   (boundary
//!             │                         ▼ shard index                │    migration)
//!             │ ┌─────────┐ ┌─────────┐     ┌─────────┐              │
//!             │ │ shard 0 │ │ shard 1 │ ... │ shard N │              │
//!             │ │ OPTIK   │ │ OPTIK   │     │ OPTIK   │              │
//!             │ │ version │ │ version │     │ version │              │
//!             │ │ lock    │ │ lock    │     │ lock    │              │
//!             │ │ ┌─────┐ │ │ ┌─────┐ │     │ ┌─────┐ │              │
//!             │ │ │ map │ │ │ │ map │ │     │ │ map │ │              │
//!             │ │ ├─────┤ │ │ ├─────┤ │     │ ├─────┤ │              │
//!             │ │ │ ttl │ │ │ │ ttl │ │     │ │ ttl │ │◀─ ttl.rs     │
//!             │ │ └─────┘ │ │ └─────┘ │     │ └─────┘ │   (deadline  │
//!             │ └─────────┘ └─────────┘     └─────────┘    tables)   │
//!             └──────────────────────────────────────────────────────┘
//!               map = any ConcurrentMap backend (OPTIK array map,
//!               striped / striped-OPTIK / resizable table, skip
//!               lists and BSTs via OrderedMap — or another KvStore)
//! ```
//!
//! The OPTIK pattern (§3 of the paper) appears at *three* granularities:
//!
//! - **shards** — single-key writes lock their shard and take no lock
//!   inside it (the backend is written through its single-writer entry
//!   points); a `remove` that finds nothing returns without locking;
//!   reads never lock; batched multi-key operations acquire the involved shard locks in
//!   ascending shard order (deadlock-free by total-order acquisition) and
//!   commit atomically across shards; multi-gets, range scans and scans
//!   are one optimistic loop (read versions, read data, validate, read
//!   again only the shards that moved) with a bounded fallback to
//!   locking. Over key-ordered shards the batched calls take their cache
//!   misses overlapped and outside the locks: a multi-get is one batched
//!   backend lookup, and the batch writers walk to their keys before
//!   they lock, take each lock at the version read before the walk, and
//!   apply through that walk wherever the version held. Failed
//!   (read-only) critical sections release
//!   with `revert`, so they never signal conflicts to other optimistic
//!   readers. On a statically routed store a contended single-key write
//!   does what the paper does with a contended OPTIK lock:
//!   `try_lock_version`, and on failure back off (adaptively, seeded from
//!   the thread's recent contention) and retry.
//! - **routing** ([`ShardPolicy`], `policy.rs`) — under ordered sharding
//!   the partition table sits behind its own OPTIK version lock: lookups
//!   read it lock-free and validate, so an online boundary migration
//!   (`rebalance.rs`) makes racing readers retry instead of mis-route.
//! - **entry lifecycle** ([`Clock`]/TTL, `ttl.rs`) — deadlines live in
//!   per-shard companion tables covered by the shard version, so a read
//!   validates the (value, deadline) pair as one snapshot; expiry is lazy
//!   on read and reclaimed incrementally by [`KvStore::sweep_expired`]
//!   through the workspace QSBR machinery.
//!
//! Ordered backends (the skip lists and BSTs, via
//! `optik_harness::api::OrderedMap`) additionally serve **range scans**:
//! [`KvStore::range_scan`] collects a `[lo, hi]` window from every shard
//! it touches inside one validated read — a snapshot across shards — and
//! [`KvStore::with_ordered_shards`] switches the store from hash
//! sharding to contiguous key partitions so a range touches only the
//! shards it intersects.
//!
//! Memory safety of optimistic traversal over chain-based backends comes
//! from the workspace QSBR domain (the `reclaim` crate): removed entries
//! are retired, not freed, until every registered thread passes a
//! quiescent point, so a scan that loses its validation race has still
//! only read live-or-retired memory.
//!
//! See `optik_harness::api::ConcurrentMap` for the backend contract. The
//! crate ships no benchmark driver: the `kv.*` registry scenarios drive
//! the store from `optik-bench`, through the harness's one measurement
//! loop.

#![warn(missing_docs)]

mod policy;
mod rebalance;
mod store;
mod ttl;

pub use policy::{HashPolicy, RangePolicy, ShardPolicy};
pub use rebalance::{MigrationStats, RebalanceError, MIGRATION_BATCH};
pub use store::KvStore;
pub use ttl::{Clock, FakeClock, SystemClock};

pub use optik_harness::api::{ConcurrentMap, Key, OrderedMap, Val};
