//! Process-level counters: heap allocations (a counting global
//! allocator), peak resident memory from `/proc`, CPU time and context
//! switches from `getrusage`, and the machine facts in the run stamp.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with an allocation counter.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (and reallocations) made so far by the process.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// `struct rusage` of Linux x86-64 / aarch64: two `timeval`s then
/// fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Resource usage of the whole process, every thread it ever ran included.
fn rusage() -> RUsage {
    let mut r = RUsage::default();
    // SAFETY: `r` is a live, writable `struct rusage` of the C layout, and
    // `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    r
}

/// Peak resident set size of this program, in MB: `VmHWM`, the high-water
/// mark of the current address space. (`getrusage`'s `ru_maxrss` would
/// also count the parent that forked us, `cargo run` or a script, because
/// it survives `exec`.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Voluntary plus involuntary context switches of the process so far.
pub fn context_switches() -> u64 {
    let r = rusage();
    (r.counters[NVCSW] + r.counters[NIVCSW]) as u64
}

/// User plus system CPU seconds used by the process so far.
pub fn cpu_seconds() -> f64 {
    let r = rusage();
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(r.utime) + tv(r.stime)
}

/// 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A point-in-time reading of the process counters, for phase deltas.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    pub at: std::time::Instant,
    pub cpu_s: f64,
    pub csw: u64,
}

impl ProcSample {
    pub fn now() -> ProcSample {
        ProcSample {
            at: std::time::Instant::now(),
            cpu_s: cpu_seconds(),
            csw: context_switches(),
        }
    }
}

/// Process counters accumulated over several measured stretches.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcDelta {
    pub cpu_s: f64,
    pub csw: u64,
    pub wall_s: f64,
}

impl ProcDelta {
    /// Runs `f`, adding the CPU time, context switches and wall time it
    /// took to the totals.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = ProcSample::now();
        let out = f();
        let after = ProcSample::now();
        self.cpu_s += after.cpu_s - before.cpu_s;
        self.csw += after.csw - before.csw;
        self.wall_s += (after.at - before.at).as_secs_f64();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_move() {
        let (before, allocs) = (ProcSample::now(), allocations());
        let mut v: Vec<u64> = Vec::new();
        for i in 0..1_000_000u64 {
            v.push(i.wrapping_mul(2_654_435_761));
        }
        std::hint::black_box(&v);
        let after = ProcSample::now();
        assert!(allocations() > allocs);
        assert!(after.cpu_s >= before.cpu_s);
        assert!(peak_rss_mb() > 1.0);
        let mut d = ProcDelta::default();
        let n = d.around(|| (0..100_000u64).map(std::hint::black_box).sum::<u64>());
        assert_eq!(n, 4_999_950_000);
        assert!(d.wall_s > 0.0 && d.cpu_s >= 0.0);
    }
}
