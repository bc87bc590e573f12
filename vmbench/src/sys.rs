//! Host clocks and memory figures the benchmark reports: process and
//! thread CPU time (`clock_gettime`), the peak resident set (`VmHWM`)
//! and the host's core count.

use std::time::Duration;

/// `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread of
/// the process, live or exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`: user + system time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // for the duration of the call, and both clock ids are defined by
    // Linux for every process and thread.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU clock is non-negative"),
        u32::try_from(ts.tv_nsec).expect("tv_nsec is below one second"),
    )
}

/// CPU time (user + system) consumed so far by the whole process.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time (user + system) consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let kb = vmprov_experiments::peak_rss_kb().expect("/proc/self/status carries VmHWM");
    kb as f64 / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
