//! Process-level measurements: child peak RSS, a daemon's `VmHWM`, and
//! the hardware descriptor printed with every result.

use dml_obs::json::{obj, Json};

#[repr(C)]
#[allow(dead_code)] // filled in by the kernel; only `ru_maxrss` is read
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two timevals
/// followed by fourteen `long` counters, the first of which is
/// `ru_maxrss` (kilobytes).
#[repr(C)]
#[allow(dead_code)] // filled in by the kernel; only `ru_maxrss` is read
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Largest peak RSS, in MiB, of any child this process has waited for
/// (the kernel keeps the maximum over all reaped children).
pub fn max_child_peak_mb() -> f64 {
    let mut usage = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // 64-bit layout, and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    usage.ru_maxrss as f64 / 1024.0
}

/// `VmHWM` (peak resident set) of a running process, in MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// `nproc`, the CPU model, the solver's effective worker count for a
/// large batch, and the persistent pool helpers behind it.
pub fn hardware() -> Json {
    let nproc = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let workers = dml_solver::effective_workers(None, 1 << 20);
    let helpers = dml_solver::pool::prewarm();
    obj(vec![
        ("nproc", Json::Int(nproc as i64)),
        ("cpu", Json::Str(cpu)),
        ("effective_workers", Json::Int(workers as i64)),
        ("pool_helpers", Json::Int(helpers as i64)),
    ])
}
