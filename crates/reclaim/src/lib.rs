//! Quiescent-state-based memory reclamation (QSBR) and type-stable pooling.
//!
//! The OPTIK paper's data structures free unlinked nodes with `ssmem`, "a
//! simple memory allocator with quiescent-based memory reclamation" (§3.3).
//! This crate reproduces that substrate from scratch:
//!
//! - [`Qsbr`] — a reclamation *domain*. Threads register to obtain a
//!   [`QsbrHandle`], announce quiescent points between operations with
//!   [`QsbrHandle::quiescent`], and defer frees with [`QsbrHandle::retire`].
//!   A retired object is dropped only after every registered, online thread
//!   has passed through a quiescent point, so oblivious readers (the paper's
//!   searches never synchronize) can never touch freed memory. Quiescent
//!   points are detected liburcu-style: sealing a batch of retired objects
//!   bumps one global epoch, and a thread copies the epoch into its own
//!   word only when it has changed — a steady-state announcement writes
//!   nothing.
//! - [`NodePool`] — a type-stable arena: slots are recycled but their memory
//!   is never returned to the OS while the pool lives. This is what makes
//!   the paper's *node caching* (§5.1) safe: a stale cached pointer always
//!   points at *some* node of the right type, and OPTIK version validation
//!   detects reuse.
//! - [`global`]/[`with_local`]/[`quiescent`] — a process-wide default domain
//!   with per-thread handles, so data-structure APIs stay clean
//!   (`list.insert(k, v)` with no explicit guard arguments).
//!
//! # The QSBR contract
//!
//! A thread registered in a domain must either call `quiescent()` regularly
//! (typically once per data-structure operation) or mark itself offline with
//! [`QsbrHandle::offline`]; otherwise garbage accumulates. This is the same
//! contract ssmem imposes in the paper.

#![warn(missing_docs)]

mod domain;
mod global;
mod pool;

pub use domain::{Qsbr, QsbrHandle, QsbrStats, RetireCtx, MAX_THREADS};
pub use global::{global, offline, offline_while, online, quiescent, retire_global, with_local};
pub use pool::{NodePool, PoolStats, PooledPtr, DEFAULT_CHUNK_CAPACITY, DEFAULT_MAGAZINE_CAPACITY};
