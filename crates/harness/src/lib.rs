//! Microbenchmark harness reproducing the OPTIK paper's methodology (§5).
//!
//! The paper's experimental settings, all implemented here:
//!
//! - **Key ranges**: "we keep the range double the initial size ... so that
//!   the size of the structure remains close to the initial". See
//!   [`Workload`].
//! - **Effective updates**: "roughly half of the update operations ...
//!   return false. The update rate that we report represents the effective
//!   percentage of updates" — so a *reported* 20% update rate issues 40%
//!   updates (20% inserts + 20% deletes). [`Workload::issued_update_permille`]
//!   performs that conversion.
//! - **Skew**: "a zipfian distribution of keys with a = 0.9, where the
//!   largest keys are the most popular". See [`zipf::Zipf`].
//! - **Latency**: "every thread holds an array of 16K latency measurements"
//!   translated to 5/25/50/75/95-percentile boxplots. See
//!   [`latency::LatencyRecorder`].
//! - **Repetitions**: "median value of 11 repetitions" — [`stats::median`].
//! - **Pauses**: "after every iteration, threads wait for a short duration,
//!   in order to avoid long runs" — [`runner`] does this between operations.

#![warn(missing_docs)]

pub mod api;
pub mod driver;
pub mod json;
pub mod latency;
pub mod linearize;
pub mod report;
pub mod rng;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod stress;
pub mod table;
pub mod workload;
pub mod zipf;

pub use api::{
    ConcurrentMap, ConcurrentQueue, ConcurrentSet, ConcurrentStack, Key, OrderedMap, SetHandle, Val,
};
pub use driver::{Point, ScenarioReport, SweepConfig};
pub use latency::{LatencyRecorder, OpKind, Percentiles};
pub use report::Report;
pub use rng::FastRng;
pub use scenario::{Measurement, Registry, RunSpec, Scenario};
pub use workload::{Op, OpMix, Workload};
pub use zipf::Zipf;
