//! Substrate synchronization primitives for the OPTIK reproduction.
//!
//! This crate provides everything below the OPTIK lock layer:
//!
//! - classic spinlock algorithms used as baselines in the paper
//!   ([`TasLock`], [`TtasLock`], [`TicketLock`], [`McsLock`], [`ClhLock`]),
//! - the exponential [`Backoff`] scheme the paper applies uniformly to all
//!   data structures ("exponentially increasing backoff times with up to 16k
//!   cycles maximum backoff", §5),
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
pub mod clh;
pub mod cycles;
pub mod lock_api;
pub mod mcs;
pub mod prefetch;
pub mod shim;
pub mod stress;
pub mod tas;
pub mod ticket;
pub mod ttas;

pub use backoff::{relax, Backoff};
pub use clh::ClhLock;
pub use crossbeam_utils::CachePadded;
pub use lock_api::{Lock, LockGuard, RawLock};
pub use mcs::{McsLock, McsNode};
pub use tas::TasLock;
pub use ticket::TicketLock;
pub use ttas::TtasLock;
