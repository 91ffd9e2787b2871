//! Self-tests for the interleaving explorer: the checker must (a) pass
//! correct protocols exhaustively, (b) find the classic bugs (lost
//! updates, relaxed publication), and (c) respect its preemption bound.
#![allow(
    clippy::disallowed_types,
    reason = "a std atomic outside the explorer records what the explored threads saw"
)]

use shuttle::sync::atomic::{AtomicU64, Ordering};
use shuttle::{check, check_with, Config};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64 as StdAtomicU64;
use std::sync::Arc;

/// Runs `check` expecting it to panic; returns the panic message.
fn expect_failure<F: Fn()>(cfg: Config, f: F) -> String {
    let r = catch_unwind(AssertUnwindSafe(|| check_with(cfg, f)));
    match r {
        Ok(report) => panic!("expected the checker to find a failure, got {report:?}"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default(),
    }
}

#[test]
fn fetch_add_never_loses_updates() {
    let report = check(|| {
        let x = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let x = Arc::clone(&x);
                shuttle::thread::spawn(move || {
                    x.fetch_add(1, Ordering::Relaxed);
                    x.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.load(Ordering::Relaxed), 4);
    });
    assert!(report.exhaustive);
    assert!(
        report.executions > 1,
        "concurrent RMWs must branch the search"
    );
}

#[test]
fn release_acquire_publication_always_visible() {
    let report = check(|| {
        let flag = Arc::new(AtomicU64::new(0));
        let data = Arc::new(AtomicU64::new(0));
        let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
        let t = shuttle::thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "publish must carry data");
        }
        t.join().unwrap();
    });
    assert!(report.exhaustive);
}

#[test]
fn fence_based_publication_always_visible() {
    use shuttle::sync::atomic::fence;
    let report = check(|| {
        let flag = Arc::new(AtomicU64::new(0));
        let data = Arc::new(AtomicU64::new(0));
        let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
        let t = shuttle::thread::spawn(move || {
            d2.store(7, Ordering::Relaxed);
            fence(Ordering::Release);
            f2.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Relaxed) == 1 {
            fence(Ordering::Acquire);
            assert_eq!(data.load(Ordering::Relaxed), 7, "fences must carry data");
        }
        t.join().unwrap();
    });
    assert!(report.exhaustive);
}

#[test]
fn relaxed_publication_stale_read_is_explored() {
    // With a relaxed publish the reader may see flag == 1 but stale data;
    // the explorer must enumerate that visibility choice.
    let stale = Arc::new(StdAtomicU64::new(0));
    let stale2 = Arc::clone(&stale);
    let report = check(move || {
        let flag = Arc::new(AtomicU64::new(0));
        let data = Arc::new(AtomicU64::new(0));
        let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
        let t = shuttle::thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Relaxed) == 1 && data.load(Ordering::Relaxed) == 0 {
            stale2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        t.join().unwrap();
    });
    assert!(report.exhaustive);
    assert!(
        stale.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "the stale-read behavior relaxed ordering permits was never explored"
    );
}

#[test]
fn relaxed_publication_assert_is_caught() {
    let msg = expect_failure(Config::default(), || {
        let flag = Arc::new(AtomicU64::new(0));
        let data = Arc::new(AtomicU64::new(0));
        let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
        let t = shuttle::thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Relaxed) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        t.join().unwrap();
    });
    assert!(msg.contains("failed"), "unexpected panic message: {msg}");
}

#[test]
fn interference_found_within_bound_only() {
    // Each thread does two fetch_adds and asserts nobody slipped between
    // them. RMWs always read the newest store, so the violation needs a
    // genuine preemption: unreachable at bound 0 (threads run atomically),
    // found at the default bound.
    let body = || {
        let x = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let x = Arc::clone(&x);
                shuttle::thread::spawn(move || {
                    let a = x.fetch_add(1, Ordering::Relaxed);
                    let b = x.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(b, a + 1, "another thread's add slipped in between");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.load(Ordering::Relaxed), 4);
    };
    let report = check_with(
        Config {
            preemption_bound: 0,
            ..Config::default()
        },
        body,
    );
    assert!(report.exhaustive);
    let msg = expect_failure(Config::default(), body);
    assert!(msg.contains("failed"), "unexpected panic message: {msg}");
}

#[test]
fn spin_loop_trips_operation_budget() {
    let msg = expect_failure(
        Config {
            max_ops_per_execution: 200,
            ..Config::default()
        },
        || {
            let x = AtomicU64::new(0);
            while x.load(Ordering::Relaxed) == 0 {}
        },
    );
    assert!(
        msg.contains("operation budget"),
        "unexpected message: {msg}"
    );
}

#[test]
fn compare_exchange_contended_cas_loop_is_linearizable() {
    let report = check(|| {
        let x = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let x = Arc::clone(&x);
                shuttle::thread::spawn(move || loop {
                    let v = x.load(Ordering::Relaxed);
                    if x.compare_exchange(v, v + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        break;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.load(Ordering::Relaxed), 2);
    });
    assert!(report.exhaustive);
}

#[test]
fn random_phase_runs_after_dfs() {
    let report = check_with(
        Config {
            random_samples: 25,
            ..Config::default()
        },
        || {
            let x = Arc::new(AtomicU64::new(0));
            let x2 = Arc::clone(&x);
            let t = shuttle::thread::spawn(move || {
                x2.fetch_add(1, Ordering::Relaxed);
            });
            x.fetch_add(1, Ordering::Relaxed);
            t.join().unwrap();
            assert_eq!(x.load(Ordering::Relaxed), 2);
        },
    );
    assert!(report.exhaustive);
    assert_eq!(report.random_samples, 25);
}

#[test]
fn outside_check_everything_falls_back_to_std() {
    // No execution context: the instrumented types must behave as plain
    // std atomics (this is what keeps ordinary tests green under
    // --cfg ses_shuttle).
    let x = AtomicU64::new(1);
    assert_eq!(x.load(Ordering::SeqCst), 1);
    x.store(5, Ordering::SeqCst);
    assert_eq!(x.swap(9, Ordering::SeqCst), 5);
    assert_eq!(x.fetch_add(1, Ordering::SeqCst), 9);
    assert_eq!(
        x.compare_exchange(10, 11, Ordering::SeqCst, Ordering::SeqCst),
        Ok(10)
    );
    let t = shuttle::thread::spawn(|| 7u32);
    assert_eq!(t.join().unwrap(), 7);
    shuttle::thread::yield_now();
    shuttle::sync::atomic::fence(Ordering::SeqCst);
}

/// Mutation self-test: weakening release *stores* must make the correct
/// release/acquire protocol fail. Runs `#[ignore]`d because the weaken
/// flag is process-global and would poison concurrently running tests;
/// CI runs it alone via `cargo test -p shuttle -- --ignored`.
#[test]
#[ignore = "mutates process-global model semantics; run alone via -- --ignored"]
fn mutation_weakened_release_store_defeats_publication() {
    shuttle::model::set_weaken_release_stores(true);
    let msg = expect_failure(Config::default(), || {
        let flag = Arc::new(AtomicU64::new(0));
        let data = Arc::new(AtomicU64::new(0));
        let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
        let t = shuttle::thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release); // weakened to Relaxed by the mutation
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        t.join().unwrap();
    });
    shuttle::model::set_weaken_release_stores(false);
    assert!(msg.contains("failed"), "unexpected panic message: {msg}");
}
