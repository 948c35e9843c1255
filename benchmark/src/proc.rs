//! What the operating system says about this process: CPU time, context
//! switches, resident memory, thread count. One process runs one
//! workload, so every counter here belongs to that workload alone.

use std::time::Duration;

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s followed by fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    // ixrss, idrss, isrss, minflt, majflt, nswap, inblock, oublock,
    // msgsnd, msgrcv, nsignals
    unused: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Process-wide resource counters. Unlike `/proc/self/task/*`, these
/// keep the share of threads that have already exited — and the engine
/// spawns and joins scoped threads on every large call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    pub ctx_switches: u64,
}

impl Usage {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn now() -> Self {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` of the layout
        // the 64-bit Linux ABI defines (2 timevals + 14 longs = 144
        // bytes), and RUSAGE_SELF (0) is a valid `who`; the call writes
        // only inside that struct.
        let rc = unsafe { getrusage(0, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let tv = |t: [i64; 2]| Duration::new(t[0] as u64, (t[1] as u32) * 1_000);
        Self {
            user: tv(ru.utime),
            sys: tv(ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        }
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn now() -> Self {
        Self::default()
    }

    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }
}

/// One `key:   value kB` (or bare number) line of `/proc/self/status`.
fn status_field(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Live threads of the process right now.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// CPU model as `/proc/cpuinfo` names it, for the machine fingerprint.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
