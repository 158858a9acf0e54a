//! In-tree observability substrate for the De-Health reproduction.
//!
//! Like the workspace's `rand` shim, this crate exists
//! because the build environment has no crates.io access: it provides
//! the minimal metrics/logging surface the serving stack needs, with no
//! dependencies and no locks on any hot path.
//!
//! Three pieces:
//!
//! - [`metrics`] — atomic [`Counter`]/[`Gauge`], the log-bucketed
//!   latency [`Histogram`] (1-2-5 ladder, 1µs→1000s, exact count/sum,
//!   bucket-bounded quantile estimates with an explicit overflow
//!   marker — [`Quantile`]), and the RAII [`SpanTimer`]
//!   that records elapsed wall-clock on drop (panic path included).
//! - [`registry`] — the named-metric [`Registry`] with label support,
//!   deterministic snapshots, and Prometheus text exposition.
//! - [`mod@log`] — a leveled structured-logging facade: [`error!`] through
//!   [`trace!`] macros emitting single-line `key=value` records to a
//!   pluggable sink (default stderr), level from `DEHEALTH_LOG`.
//!
//! The JSON exposition of a registry lives in `dehealth-service`
//! (`registry_to_json`), next to the in-tree JSON encoder it targets —
//! this crate stays a leaf with zero dependencies.

#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod registry;

pub use log::{Level, LogSink, Record};
pub use metrics::{
    bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, Quantile, SpanTimer,
    BUCKET_BOUNDS_NANOS, N_BUCKETS,
};
pub use registry::{MetricKey, MetricSnapshot, MetricValue, Registry};
