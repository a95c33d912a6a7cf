//! The two clocks every timed region reads: process CPU time, which the
//! bounded metrics use, and wall time, which the traced run reports.
//!
//! On a shared virtual machine the hypervisor runs other guests on the
//! vCPUs for seconds at a time, and the wall time of a multi-threaded
//! path then mostly measures that: over three `loops` repetitions on the
//! 2-vCPU development host, the host stole 3.8, 7.2 and 10.9 s, the
//! wall time of the supervised and daemon paths grew by a third, and
//! their process CPU time by 3-4%. `CLOCK_PROCESS_CPUTIME_ID` counts the
//! CPU time of every thread of the process, exited threads included, and
//! a Linux guest with paravirt steal accounting leaves stolen time out.
//! CPU time cannot see a thread that sleeps or blocks, so wall time is
//! taken alongside it.

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads the Linux process CPU clock");

use std::ops::AddAssign;
use std::os::raw::{c_int, c_long};
use std::time::{Duration, Instant};

/// `struct timespec`; `time_t` is a `long` on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time used so far by every thread of this process.
pub fn cpu_now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, aligned `timespec`, the only memory the
    // call writes, and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Seconds of process CPU time and of wall time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Times {
    pub cpu: f64,
    pub wall: f64,
}

impl AddAssign for Times {
    fn add_assign(&mut self, other: Times) {
        self.cpu += other.cpu;
        self.wall += other.wall;
    }
}

/// Both clocks read at one moment.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    pub cpu: Duration,
    pub wall: Instant,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_now(),
        }
    }

    /// Time from `self` to `end`.
    pub fn until(self, end: Stamp) -> Times {
        Times {
            cpu: (end.cpu - self.cpu).as_secs_f64(),
            wall: (end.wall - self.wall).as_secs_f64(),
        }
    }
}

/// Runs `f` and returns its result with the time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Times) {
    let start = Stamp::now();
    let r = f();
    (r, start.until(Stamp::now()))
}
