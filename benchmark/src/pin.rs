//! Thread placement.
//!
//! On the two-vCPU reference machine a wake-up that crosses CPUs costs
//! about 30 µs, as much as a whole small transaction, and the kernel's
//! choice of whether a client and its connection handler share a CPU flips
//! between runs: identical code was measured at 26k and at 9.4k
//! transactions per second. The benchmark therefore fixes the choice: each
//! connection's client thread and server handler thread share one CPU, and
//! the second connection's pair gets the second CPU. A single closed-loop
//! connection loses nothing by this — its client waits while the server
//! works — and two connections still run side by side.

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict thread `tid` (0 = the calling thread) to `cpu`. Threads it
/// spawns afterwards inherit the restriction.
pub fn pin(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte array and the size
    // passed is its size; the kernel only reads that many bytes from it.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The CPUs this process may run on (`Cpus_allowed_list`), ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("0");
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.split('-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => {}
        }
    }
    if cpus.is_empty() {
        cpus.push(0);
    }
    cpus
}
