//! What the benchmark asks of Linux directly: CPU affinity for the load
//! model, per-thread and per-process CPU time and peak RSS from `/proc`,
//! and the machine description printed with every result.

use std::collections::BTreeSet;

// std already links libc; declaring the four calls used here adds no
// dependency.
extern "C" {
    fn sync();
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;
/// Words in a CPU mask: 16 × 64 = 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// A set of CPUs a thread may run on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuMask([u64; MASK_WORDS]);

impl CpuMask {
    pub fn single(cpu: usize) -> Option<CpuMask> {
        let mut words = [0u64; MASK_WORDS];
        *words.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        Some(CpuMask(words))
    }

    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..MASK_WORDS * 64).filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1).collect()
    }
}

/// The calling thread's affinity mask.
pub fn current_affinity() -> Option<CpuMask> {
    let mut words = [0u64; MASK_WORDS];
    // SAFETY: `words` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&words), words.as_mut_ptr()) };
    (rc == 0).then_some(CpuMask(words))
}

/// Restrict the calling thread (and threads it spawns afterwards) to
/// `mask`. `false` if the kernel refused — e.g. the CPU is not in the
/// container's set — in which case nothing changed.
pub fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask.0` is a live buffer of exactly the byte length
    // passed and is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_ptr()) == 0 }
}

/// Write every dirty page back before a timed step that ends in an
/// `fsync`. What earlier steps left dirty — the corpus the set-up
/// generated, the last repetition's output — the kernel writes back when
/// it chooses, which is during the next timed step, in the same disk
/// queue as that step's own `fsync` (and on a journalling ext4 inside
/// that `fsync`'s commit). With this a step pays for its own bytes only.
pub fn flush_dirty_pages() {
    // SAFETY: sync(2) takes no arguments and touches no user memory.
    unsafe { sync() }
}

/// Kernel thread ids of this process, from `/proc/self/task`.
pub fn thread_ids() -> BTreeSet<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok()).collect())
        .unwrap_or_default()
}

/// Threads present in `after` but not in `before`: the ones a call made
/// between the two snapshots left running.
pub fn appeared(before: &BTreeSet<u32>, after: &BTreeSet<u32>) -> Vec<u32> {
    after.difference(before).copied().collect()
}

/// The calling thread's kernel id.
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Nanoseconds thread `tid` of this process has spent on a CPU (first
/// field of its `schedstat`). `None` once the thread has exited.
pub fn thread_cpu_ns(tid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    parse_schedstat(&text)
}

fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Sum of [`thread_cpu_ns`] over `tids` (exited threads count as 0).
pub fn threads_cpu_ns(tids: &[u32]) -> u64 {
    tids.iter().filter_map(|&t| thread_cpu_ns(t)).sum()
}

fn proc_dir(pid: Option<u32>) -> String {
    pid.map_or_else(|| "/proc/self".to_string(), |p| format!("/proc/{p}"))
}

/// Milliseconds per scheduler clock tick: the resolution of
/// [`process_cpu_ms`].
pub fn clock_tick_ms() -> Option<f64> {
    // SAFETY: sysconf takes an integer selector and touches no memory.
    let ticks_per_sec = unsafe { sysconf(SC_CLK_TCK) };
    (ticks_per_sec > 0).then(|| 1000.0 / ticks_per_sec as f64)
}

/// User + system CPU milliseconds of a whole process (this one when
/// `pid` is `None`), exited threads included, at clock-tick resolution.
pub fn process_cpu_ms(pid: Option<u32>) -> Option<f64> {
    let text = std::fs::read_to_string(format!("{}/stat", proc_dir(pid))).ok()?;
    Some(parse_stat_cpu_ticks(&text)? as f64 * clock_tick_ms()?)
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) of a process in MiB (this one when `pid`
/// is `None`).
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let text = std::fs::read_to_string(format!("{}/status", proc_dir(pid))).ok()?;
    parse_vm_hwm_kib(&text).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.split_whitespace().next()?.parse().ok()
}

/// The machine a result was measured on.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub llc: String,
    pub kernel: String,
}

pub fn machine() -> Machine {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
    // The last-level cache is the highest index under cpu0's cache dir.
    let llc = (0..8)
        .rev()
        .map(|i| read(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")))
        .find(|s| !s.trim().is_empty())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
    Machine {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        cpu_model,
        llc,
        kernel: if kernel.is_empty() { "unknown".to_string() } else { kernel },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_set_diffing_names_only_the_newcomers() {
        let before: BTreeSet<u32> = [10, 11, 12].into();
        // 11 exited, 20 and 21 appeared.
        let after: BTreeSet<u32> = [10, 12, 20, 21].into();
        assert_eq!(appeared(&before, &after), vec![20, 21]);
        assert!(appeared(&after, &after).is_empty());
    }

    #[test]
    fn a_spawned_thread_appears_and_accrues_cpu() {
        let before = thread_ids();
        assert!(before.contains(&current_tid().unwrap()));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let mut x = 0u64;
            for i in 0..5_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            ready_tx.send(current_tid().unwrap()).unwrap();
            let _ = stop_rx.recv();
        });
        let tid = ready_rx.recv().unwrap();
        let new = appeared(&before, &thread_ids());
        assert!(new.contains(&tid), "{new:?} should contain {tid}");
        assert!(thread_cpu_ns(tid).unwrap() > 0);
        assert_eq!(threads_cpu_ns(&[tid]), thread_cpu_ns(tid).unwrap());
        drop(stop_tx);
        worker.join().unwrap();
        assert_eq!(thread_cpu_ns(tid), None, "an exited thread has no schedstat");
    }

    #[test]
    fn proc_parsers_handle_awkward_command_names() {
        assert_eq!(parse_schedstat("123456 789 4\n"), Some(123456));
        let stat = "42 (scholar (serve) x) S 1 42 42 0 -1 4194560 1 2 3 4 170 30 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(200));
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  350868 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(350868));
        assert_eq!(parse_vm_hwm_kib("Name: x\n"), None);
    }

    #[test]
    fn own_process_readings_are_present_and_affinity_round_trips() {
        assert!(peak_rss_mib(None).unwrap() > 0.0);
        assert!(process_cpu_ms(None).is_some());
        let original = current_affinity().expect("affinity readable");
        assert!(set_affinity(&original), "re-applying the current mask must succeed");
        assert_eq!(current_affinity().unwrap(), original);
        assert!(CpuMask::single(5000).is_none());
        assert_eq!(CpuMask::single(70).unwrap().cpus(), vec![70]);
        assert!(!original.cpus().is_empty());
        assert!(machine().nproc >= 1);
    }
}
