//! Process resource usage from `getrusage(2)`.

use std::os::raw::{c_int, c_long};

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs, of
/// which only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

/// Whose usage to read.
#[derive(Debug, Clone, Copy)]
pub enum Who {
    /// The calling process.
    Process = 0,
    /// Every child and further descendant the process has waited for.
    Children = -1,
}

/// CPU time and peak resident set of a process or its reaped children.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system seconds.
    pub cpu_s: f64,
    /// Peak resident set in kilobytes (for [`Who::Children`], the largest
    /// single child's).
    pub maxrss_kb: u64,
}

/// Reads the usage of `who`.
pub fn usage(who: Who) -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the platform's
    // layout, and `who` is one of the two values getrusage defines.
    let rc = unsafe { getrusage(who as c_int, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who:?}) cannot fail on valid arguments");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        maxrss_kb: ru.maxrss as u64,
    }
}
