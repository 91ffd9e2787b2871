//! # ses-obs — structured observability for the ses workspace
//!
//! A std-only leaf crate (no dependency on the engine) providing the four
//! observability primitives every other layer threads through:
//!
//! * [`TraceId`] — 64-bit request trace ids, hex on the wire
//!   (`x-ses-trace-id`), carried in-process by a thread-local set with
//!   [`trace_scope`];
//! * spans — a lock-free per-thread bounded ring ([`SpanRing`]) of
//!   [`SpanRecord`]s with monotonic timestamps, engine-counter deltas
//!   ([`OpsDelta`]) and stage labels ([`Stage`]); record with [`span`]
//!   guards or [`record_span`], read back with [`collect_trace`], render
//!   with [`format_trace`];
//! * [`Histogram`] — lock-free log-bucketed latency histograms (the
//!   server's per-endpoint `/metrics` lines and the per-stage
//!   [`stage_latencies`] both sit on these);
//! * [`log`]/[`Level`] — leveled, per-component rate-limited structured
//!   logging to stderr, text or JSON lines.
//!
//! Everything here is wait-free on the hot path (atomic stores into
//! preallocated slots) and allocation-free at steady state, so the
//! instrumentation can stay on in production; see DESIGN.md §9 for the
//! span model and the overhead methodology.
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
#![allow(
    clippy::disallowed_types,
    reason = "the span rings and histograms are the audited, model-checked lock-free code"
)]

mod hist;
mod log;
mod span;
pub mod sync;
mod trace;

#[cfg(all(test, ses_shuttle))]
mod model_tests;

pub use hist::{Histogram, HistogramSnapshot};
pub use log::{
    log, log_enabled, log_level, set_log_json, set_log_level, FieldValue, Level, MAX_LINES_PER_SEC,
};
pub use span::{
    collect_trace, current_trace, format_trace, now_ns, record_span, set_default_ring_capacity,
    span, stage_latencies, thread_ring_stats, trace_scope, OpsDelta, SpanGuard, SpanRecord,
    SpanRing, Stage, StageLatency, TraceScope, STAGES,
};
pub use trace::TraceId;
