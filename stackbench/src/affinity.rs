//! CPU placement of the benchmark process: every thread on one CPU.
//!
//! The benchmark's load is a closed loop from one caller: at any instant
//! one thread has work and the others wait for it. Spread over two virtual
//! CPUs, every hand-off between those threads is a cross-CPU wake-up, which
//! on a virtual machine costs an inter-processor interrupt and a hypervisor
//! exit — measured here at ~14 µs each, three per HTTP request: a keep-alive
//! request that costs 20 µs of program time read 63 µs, or 20 µs again
//! whenever the scheduler happened to co-locate the threads. Two thirds of
//! that number is the host, it flips between runs, and no change to the
//! program moves it. The parallel phases fared no better: a two-thread
//! batch ran at 155 k users/s or at 82 k for whole runs on end, depending on
//! whether the box's second virtual CPU was there that minute. So every
//! thread of the process runs on one CPU, where a hand-off is a context
//! switch and throughput is CPU work; the traced run releases the process
//! onto all its CPUs only around the per-layer probes that exist to see
//! parallel speed-up, and those have no bound.

use std::io;

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    // From the C library std already links; both take a thread id (0 = the
    // calling thread), the set's size in bytes, and a pointer to the set.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

fn set(tid: i32, cpus: &CpuSet) -> io::Result<()> {
    // SAFETY: `cpus` points at `size_of::<CpuSet>()` readable bytes for the
    // whole call, which is all sched_setaffinity requires of its arguments.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), cpus.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The CPUs this process may run on, and the one a run is pinned to.
pub struct Cpus {
    all: CpuSet,
    one: CpuSet,
    /// Index of the CPU a run is pinned to: the lowest one allowed.
    pub pinned_cpu: usize,
    /// How many CPUs the process was given.
    pub count: u32,
}

impl Cpus {
    /// Read the process's allowed CPUs; `Err` where the platform refuses,
    /// in which case the run goes unpinned and says so.
    pub fn detect() -> io::Result<Cpus> {
        let mut all: CpuSet = [0; 16];
        // SAFETY: `all` is `size_of::<CpuSet>()` writable bytes, the size
        // passed; sched_getaffinity writes at most that many.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), all.as_mut_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        let pinned_cpu = (0..1024)
            .find(|cpu| all[cpu / 64] >> (cpu % 64) & 1 == 1)
            .ok_or_else(|| io::Error::other("empty CPU set"))?;
        let mut one: CpuSet = [0; 16];
        one[pinned_cpu / 64] = 1 << (pinned_cpu % 64);
        Ok(Cpus {
            all,
            one,
            pinned_cpu,
            count: all.iter().map(|w| w.count_ones()).sum(),
        })
    }

    /// Move every thread of the process onto one CPU (`true`) or back onto
    /// all of them (`false`). Threads spawned later inherit their
    /// creator's placement.
    pub fn pin(&self, one: bool) -> io::Result<()> {
        let cpus = if one { &self.one } else { &self.all };
        for task in std::fs::read_dir("/proc/self/task")? {
            let name = task?.file_name();
            let tid = name
                .to_str()
                .and_then(|t| t.parse::<i32>().ok())
                .ok_or_else(|| io::Error::other("unreadable thread id"))?;
            match set(tid, cpus) {
                Ok(()) => {}
                // A thread that exited between the listing and the call.
                Err(e) if e.raw_os_error() == Some(3) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_moves_every_thread_and_releasing_restores_the_set() {
        let cpus = Cpus::detect().expect("affinity is readable on the bench box");
        assert!(cpus.count >= 1);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let other = std::thread::spawn(move || {
            rx.recv().unwrap();
            Cpus::detect().unwrap().count
        });
        cpus.pin(true).unwrap();
        assert_eq!(Cpus::detect().unwrap().count, 1);
        tx.send(()).unwrap();
        assert_eq!(
            other.join().unwrap(),
            1,
            "the waiting thread was pinned too"
        );
        cpus.pin(false).unwrap();
        assert_eq!(Cpus::detect().unwrap().count, cpus.count);
    }
}
