//! Host steal in one thread's wall time.
//!
//! On a virtual machine the hypervisor now and then runs another tenant on
//! a vCPU while a thread of ours is running on it. The guest sees that as
//! wall time that passes while the thread neither runs nor waits in a run
//! queue. How much of it a run gets depends on the host's other tenants:
//! on the 2-vCPU host it took 1% to 6% of the solve loop's wall time from
//! run to run, and it fell on few enough solves to set `solve_ms_p90`
//! almost alone. This module takes it out of a measured interval: the
//! thread's own CPU time (`CLOCK_THREAD_CPUTIME_ID`, which the kernel
//! keeps without steal) plus its run-queue wait (`/proc/thread-self/schedstat`)
//! is the interval's wall time less steal, as long as the thread never
//! blocked in it. An interval in which the thread blocked (a voluntary
//! context switch) keeps its whole wall time, so waiting on a lock or a
//! file still counts.

use std::os::raw::{c_int, c_long};

extern "C" {
    /// POSIX `clock_gettime(3)`.
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// The calling thread's counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct ThreadClock {
    cpu_ns: u64,
    run_delay_ns: u64,
    voluntary_switches: u64,
}

impl ThreadClock {
    /// Reads the calling thread's counters, or `None` where the kernel
    /// does not offer them.
    pub fn now() -> Option<ThreadClock> {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: the kernel writes one `struct timespec` into `ts`, which
        // has that layout and lives for the call.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
            return None;
        }
        // `run_time run_delay timeslices`, in ns.
        let schedstat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        let run_delay_ns = schedstat.split_whitespace().nth(1)?.parse().ok()?;
        let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
        let voluntary_switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
            .trim()
            .parse()
            .ok()?;
        Some(ThreadClock {
            cpu_ns: ts.sec as u64 * 1_000_000_000 + ts.nsec as u64,
            run_delay_ns,
            voluntary_switches,
        })
    }

    /// Steal (ms) in an interval of `wall_ms` that began at `start` and
    /// ended at `self`: 0 when the thread blocked in it.
    pub fn steal_ms(&self, start: &ThreadClock, wall_ms: f64) -> f64 {
        if self.blocked_since(start) {
            return 0.0;
        }
        let held_ms = (self.cpu_ns.saturating_sub(start.cpu_ns)
            + self.run_delay_ns.saturating_sub(start.run_delay_ns)) as f64
            / 1e6;
        (wall_ms - held_ms).max(0.0)
    }

    /// Whether the thread blocked between `start` and `self`.
    pub fn blocked_since(&self, start: &ThreadClock) -> bool {
        self.voluntary_switches != start.voluntary_switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(cpu_ms: u64, run_delay_ms: u64, voluntary_switches: u64) -> ThreadClock {
        ThreadClock {
            cpu_ns: cpu_ms * 1_000_000,
            run_delay_ns: run_delay_ms * 1_000_000,
            voluntary_switches,
        }
    }

    #[test]
    fn steal_is_wall_time_neither_running_nor_queued() {
        let start = at(100, 10, 3);
        assert_eq!(at(130, 12, 3).steal_ms(&start, 40.0), 8.0);
        assert!(!at(130, 12, 3).blocked_since(&start));
        // Clock granularity can make the parts exceed the wall time.
        assert_eq!(at(140, 12, 3).steal_ms(&start, 40.0), 0.0);
    }

    #[test]
    fn a_blocked_interval_keeps_its_wall_time() {
        let start = at(100, 10, 3);
        assert_eq!(at(110, 10, 4).steal_ms(&start, 40.0), 0.0);
        assert!(at(110, 10, 4).blocked_since(&start));
    }

    #[test]
    fn the_calling_thread_can_read_its_clock() {
        let start = ThreadClock::now().expect("thread counters on Linux");
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let end = ThreadClock::now().expect("thread counters on Linux");
        assert!(end.cpu_ns > start.cpu_ns);
    }
}
