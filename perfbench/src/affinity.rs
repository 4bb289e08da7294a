//! CPU affinity of threads, through the C library's `sched_getaffinity`
//! and `sched_setaffinity` (the standard library has no wrapper).

use std::io;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 CPUs.
type Mask = [u64; 16];

/// The CPUs this process may run on, in ascending order.
pub fn allowed() -> Vec<usize> {
    let mut mask: Mask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    if status != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts thread `tid` (0: the calling thread) to `cpus`.
pub fn pin_thread(tid: i32, cpus: &[usize]) -> io::Result<()> {
    let mut mask: Mask = [0; 16];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let status = unsafe { sched_setaffinity(tid, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    if status == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Restricts every thread of process `pid` to `cpus`.
pub fn pin_process(pid: u32, cpus: &[usize]) -> io::Result<()> {
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let tid = entry?.file_name().to_string_lossy().parse::<i32>();
        if let Ok(tid) = tid {
            pin_thread(tid, cpus)?;
        }
    }
    Ok(())
}
