//! Observability for the recovery-machine pipeline: metrics + events.
//!
//! The commit/recovery pipeline is a bank of real threads (log-processor
//! appenders, committing workers, restart redo workers). Answering
//! "where did this commit's latency go?" or "what did recovery actually
//! replay?" needs two complementary instruments, both cheap enough to
//! leave on in the hot path:
//!
//! * a [`Registry`] of named **metrics** — monotonic [`Counter`]s,
//!   last-value [`Gauge`]s, and fixed-bucket [`Histogram`]s whose
//!   snapshots expose p50/p95/p99 estimates bounded by their bucket —
//!   every handle a couple of relaxed atomic ops to update;
//! * a bounded, lock-free **[`EventRing`]** of sequence-numbered
//!   structured [`Event`]s (`ts_us`, kind, txn/stream/page ids, payload)
//!   for the "what happened just before X" questions a counter cannot
//!   answer. Writers never block on readers; a snapshot never yields a
//!   torn or duplicate-sequence event.
//!
//! [`Registry::snapshot`] freezes everything into a [`MetricsSnapshot`]
//! with text ([`std::fmt::Display`]) and JSON
//! ([`MetricsSnapshot::to_json`]) exporters, so benches can persist named
//! metrics next to their throughput numbers and tests can phrase
//! conservation laws (`commits_acked == group_commit_completions`) as
//! assertions over two independently incremented counters.
//!
//! # Example
//!
//! ```
//! use rmdb_obs::{EventKind, Registry};
//!
//! let obs = Registry::new();
//! let commits = obs.counter("txn.commits_acked");
//! let latency = obs.histogram("txn.commit_us");
//!
//! commits.inc();
//! latency.record(180);
//! obs.emit(EventKind::TxnCommit, 7, 0, 0, 180);
//!
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("txn.commits_acked"), Some(1));
//! assert!(snap.histogram("txn.commit_us").unwrap().quantile(0.5) >= 180);
//! assert_eq!(obs.events().snapshot().len(), 1);
//! ```

pub mod event;
pub mod registry;

pub use event::{Event, EventKind, EventRing};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, BUCKET_BOUNDS,
};
