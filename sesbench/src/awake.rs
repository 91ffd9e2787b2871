//! Keeps idle vCPUs out of the halted state for the length of a run.
//!
//! On a virtual machine a halted vCPU pays a host-side wake-up every time a
//! request hands work to a thread on it, and that cost depends on the
//! host's other tenants, not on this program. The solve loop keeps one vCPU
//! busy; a spinner under `SCHED_IDLE` keeps the other one busy, as the
//! kernel's `idle=poll` would. A waking thread of any other policy preempts
//! it at once, and the scheduler counts its vCPU as idle when it places
//! one. (At nice 19 instead, a waking server thread could wait for the
//! spinner's slice to end.)

use std::os::raw::c_int;
use std::sync::mpsc::{self, Sender, TryRecvError};
use std::thread::JoinHandle;

extern "C" {
    /// Linux `sched_setscheduler(2)`; `pid` 0 is the calling thread.
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
}

/// `struct sched_param`: only the priority, which `SCHED_IDLE` requires
/// to be 0.
#[repr(C)]
struct SchedParam {
    priority: c_int,
}

/// Linux's `SCHED_IDLE` policy.
const SCHED_IDLE: c_int = 5;

/// Running spinners; they stop and are joined on drop.
pub struct KeepAwake {
    /// One per spinner: dropping it disconnects that spinner's receiver,
    /// which is its signal to stop.
    stops: Vec<Sender<()>>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts `count` `SCHED_IDLE` spinners.
    pub fn start(count: usize) -> Self {
        let mut stops = Vec::with_capacity(count);
        let threads = (0..count)
            .map(|i| {
                let (stop, stopped) = mpsc::channel::<()>();
                stops.push(stop);
                std::thread::Builder::new()
                    .name(format!("keep-awake-{i}"))
                    .spawn(move || {
                        let param = SchedParam { priority: 0 };
                        // SAFETY: the kernel only reads `param`, which lives
                        // for the call, and changes this thread's policy. A
                        // failure (-1 with errno) leaves the policy as it
                        // was.
                        unsafe {
                            sched_setscheduler(0, SCHED_IDLE, &param);
                        }
                        while stopped.try_recv() == Err(TryRecvError::Empty) {
                            std::hint::spin_loop();
                        }
                    })
                    .expect("spawn keep-awake thread")
            })
            .collect();
        Self { stops, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stops.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
