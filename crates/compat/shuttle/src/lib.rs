//! # shuttle — a hand-rolled interleaving explorer for lock-free code
//!
//! An offline, std-only stand-in for a loom-style model checker (the name
//! nods at AWS's `shuttle`; the build environment has no crates.io access,
//! so this is written from scratch like the other `crates/compat` shims).
//! It exists to *prove* the workspace's lock-free layer — the seqlock span
//! rings and log-bucketed histograms in `ses-obs`, the shard gauges in
//! `ses-server` — instead of trusting empirical stress tests.
//!
//! ## How it works
//!
//! [`check`] runs a closure over and over. Inside the closure, every
//! operation on the instrumented types ([`sync::atomic`], [`thread`]) is a
//! *decision point*: the explorer serializes all model threads (exactly one
//! runs at a time, coordinated by baton-passing over a condvar) and at each
//! point consults a depth-first search over a persistent choice stack.
//! Two kinds of choices branch the search:
//!
//! * **scheduling** — which runnable thread executes the next operation.
//!   Context switches away from a still-runnable thread are *preemptions*
//!   and are bounded ([`Config::preemption_bound`]); within the bound the
//!   DFS is exhaustive, which is the classic iterative-context-bounding
//!   result that almost all concurrency bugs need only a few preemptions.
//! * **visibility** — which store a load observes. Each atomic location
//!   keeps its full store history with vector clocks; a load may read any
//!   store not superseded by happens-before (see [`sync::atomic`] for the
//!   memory model). This is what makes `Relaxed` vs `Release`/`Acquire`
//!   *observable*: weaken a publish store and the explorer will find the
//!   stale read the real memory model permits.
//!
//! Above the preemption bound, [`Config::random_samples`] adds seeded
//! pseudo-random executions (unbounded preemptions, random read choices)
//! as a cheap lottery over the schedules the DFS did not enumerate.
//!
//! ## Using it
//!
//! Code under test switches its atomics to a facade that resolves here
//! under `cfg(ses_shuttle)` (see `ses_obs::sync`). Outside a [`check`]
//! execution the instrumented types fall back to plain `std` atomics, so a
//! `--cfg ses_shuttle` build still runs its ordinary test suite unchanged.
//!
//! ```
//! use shuttle::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let report = shuttle::check(|| {
//!     let flag = Arc::new(AtomicU64::new(0));
//!     let data = Arc::new(AtomicU64::new(0));
//!     let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
//!     let t = shuttle::thread::spawn(move || {
//!         d2.store(42, Ordering::Relaxed);
//!         f2.store(1, Ordering::Release);
//!     });
//!     if flag.load(Ordering::Acquire) == 1 {
//!         // Release/Acquire publication: 42 is guaranteed visible.
//!         assert_eq!(data.load(Ordering::Relaxed), 42);
//!     }
//!     t.join().unwrap();
//! });
//! assert!(report.exhaustive);
//! ```
//!
//! Weaken the `Release` to `Relaxed` and [`check`] panics with the failing
//! schedule — the explorer finds the interleaving-plus-visibility choice
//! where the reader sees `flag == 1` but stale `data`.
//!
//! ## Model limitations (documented, deliberate)
//!
//! * Modification order is the serialized execution order of stores;
//!   weakness is modeled on the *read* side (stale visibility), which
//!   covers publication/ordering bugs but not store-reordering anomalies.
//! * `SeqCst` is treated as `AcqRel` (no global SC order), which only
//!   *adds* behaviors — safe for bug-finding, but code whose correctness
//!   needs the SC total order (Dekker-style mutual exclusion) will report
//!   false positives. Nothing in this workspace relies on SC-only order.
//! * Only the types in [`sync::atomic`] and [`thread`] are instrumented;
//!   `Mutex`/channels run on std and are invisible to the scheduler.
#![allow(
    clippy::disallowed_types,
    reason = "the model checker instruments the std atomics it stands in for"
)]

mod exec;
pub mod sync;
pub mod thread;

pub use exec::{check, check_with, Config, Report};

/// Test-only knobs for *mutating* the modeled memory semantics, used to
/// prove the explorer actually catches weakened orderings.
pub mod model {
    pub use crate::exec::set_weaken_release_stores;
}
