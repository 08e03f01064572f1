//! Observability spine for `netsched`: a lock-cheap metrics registry,
//! hand-rolled with zero dependencies (the workspace's vendored-shim
//! discipline — no crates.io).
//!
//! # Metrics
//!
//! [`ObsRegistry`] hands out [`Counter`]s, [`Gauge`]s and log-linear
//! latency [`Histogram`]s by static name. Handles are `Arc`'d atomics:
//! recording is a few relaxed atomic operations, lock- and
//! allocation-free, so hot loops can be instrumented without budget
//! anxiety (the root `alloc_regression` suite pins the zero-allocation
//! claim). [`ObsRegistry::snapshot`] freezes everything into a
//! [`MetricsReport`] with exact counts and p50/p95/p99/max latency
//! summaries, exportable as JSON ([`MetricsReport::to_json`]) or
//! Prometheus text ([`MetricsReport::to_prometheus`]).
//!
//! Histograms bucket nanoseconds log-linearly (exact below 16 ns, ≤ 12.5 %
//! relative bucket error above, full `u64` range in 496 buckets); quantiles
//! report bucket upper bounds clamped to the exact maximum, so they never
//! under-report a latency. See [`metrics`] for the layout.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsReport, ObsRegistry};
