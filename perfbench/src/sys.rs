//! Process CPU time and peak resident memory, read from the C library
//! through declared `extern "C"` functions so the benchmark needs no crate
//! beyond the engine. Linux x86-64 layouts.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; RUSAGE_WORDS]) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;
/// `struct rusage`: two `timeval`s (4 words) then 14 `long`s.
const RUSAGE_WORDS: usize = 18;
/// Word index of `ru_maxrss` (KiB) in `struct rusage`.
const RU_MAXRSS: usize = 4;

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// High-water resident set size of this process in MiB (the kernel's
/// `VmHWM`, as `getrusage` reports it in `ru_maxrss`).
pub fn peak_rss_mb() -> f64 {
    let mut ru = [0i64; RUSAGE_WORDS];
    // SAFETY: `ru` is a writable buffer of `size_of::<struct rusage>()`
    // bytes on Linux x86-64.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru[RU_MAXRSS] as f64 / 1024.0
}
