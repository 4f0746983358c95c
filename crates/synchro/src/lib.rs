//! Substrate synchronization primitives for the OPTIK reproduction.
//!
//! This crate provides everything below the OPTIK lock layer:
//!
//! - the classic spinlocks the structures build on: [`TtasLock`] (lazy
//!   lists, striped tables, the paper's Fig. 5 straw man) and [`McsLock`]
//!   (the global-lock baselines),
//! - the one exponential [`Backoff`] every data structure uses, as in the
//!   paper ("exponentially increasing backoff times with up to 16k cycles
//!   maximum backoff", §5), with each retry loop's ceiling seeded from the
//!   thread's recent contention,
//! - a cheap per-core [`cycles::now`] timestamp counter used for the latency
//!   distributions of Figures 7 and 12,
//! - [`CachePadded`] re-exported from `crossbeam-utils` so every crate pads
//!   contended words the same way,
//! - the [`shim`] atomic wrappers that make the OPTIK validation points
//!   schedulable by the deterministic explorer (`optik-explore`) under
//!   `--cfg optik_explore`, at zero cost in normal builds.
//!
//! The locks here implement the plain mutual-exclusion interface
//! ([`RawLock`]); the extended OPTIK interface lives in the `optik` crate.

#![warn(missing_docs)]

pub mod backoff;
pub mod cycles;
pub mod lock_api;
pub mod mcs;
pub mod prefetch;
pub mod shim;
pub mod stress;
pub mod ttas;

pub use backoff::{relax, Backoff};
pub use crossbeam_utils::CachePadded;
pub use lock_api::{Lock, LockGuard, RawLock};
pub use mcs::{McsLock, McsNode};
pub use ttas::TtasLock;
