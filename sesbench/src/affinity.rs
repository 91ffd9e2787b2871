//! Gives the solve loop a vCPU of its own for the measured window.
//!
//! Without it, the scheduler places the server's threads (HTTP solves,
//! session events) on whichever vCPU it likes, and each time one lands on
//! the solve loop's vCPU the solve in flight waits its turn. How often that
//! happens depends on wake-up timing, not on this program, and it set
//! `solve_ms_p90` from run to run. For the window, every thread of the
//! process runs on the second allowed CPU and the solve loop on the first.

use std::os::raw::c_int;

extern "C" {
    /// Linux `sched_setaffinity(2)`; `pid` is a thread id, 0 for the caller.
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    /// Linux `sched_getaffinity(2)`.
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
}

/// Words of the CPU mask: 1,024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;
type Mask = [u64; WORDS];

fn mask_of(cpus: &[usize]) -> Mask {
    let mut mask = [0; WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    mask
}

/// Sets one thread's mask. A thread that has exited in the meantime is
/// skipped, and a refusal leaves the mask as it was: both only cost the
/// separation, never a result.
fn set(tid: c_int, mask: &Mask) {
    // SAFETY: the kernel reads `size` bytes from `mask`, which is exactly
    // `WORDS * 8` bytes long and lives for the call.
    unsafe {
        sched_setaffinity(tid, WORDS * 8, mask.as_ptr());
    }
}

/// Sets the mask of every thread the process has now.
fn set_all(mask: &Mask) {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in dir
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
    {
        set(tid, mask);
    }
}

/// The CPUs of the window: the solve loop's and everyone else's.
pub struct Split {
    solve: Mask,
    serve: Mask,
    all: Mask,
}

impl Split {
    /// The first two CPUs the process may run on, or `None` with fewer.
    pub fn detect() -> Option<Split> {
        let mut all = [0; WORDS];
        // SAFETY: the kernel writes at most `size` bytes into `all`, which
        // is exactly `WORDS * 8` bytes long and lives for the call.
        if unsafe { sched_getaffinity(0, WORDS * 8, all.as_mut_ptr()) } != 0 {
            return None;
        }
        let mut cpus = (0..WORDS * 64).filter(|&c| all[c / 64] >> (c % 64) & 1 == 1);
        let (solve, serve) = (cpus.next()?, cpus.next()?);
        Some(Split {
            solve: mask_of(&[solve]),
            serve: mask_of(&[serve]),
            all,
        })
    }

    /// Moves every thread of the process to the serve CPU until the guard
    /// drops; threads started meanwhile inherit their starter's mask.
    pub fn apply(&self) -> Applied<'_> {
        set_all(&self.serve);
        Applied(self)
    }
}

/// The split in force; dropping it lets every thread run on every CPU the
/// process was allowed at start again.
pub struct Applied<'a>(&'a Split);

impl Applied<'_> {
    /// Moves the calling thread to the solve CPU.
    pub fn solve_here(&self) {
        set(0, &self.0.solve);
    }
}

impl Drop for Applied<'_> {
    fn drop(&mut self) {
        set_all(&self.0.all);
    }
}
