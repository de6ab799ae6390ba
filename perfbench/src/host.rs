//! Host clocks, `/proc` readers and the calibration probe: the
//! diagnostics that attribute an unsteady set of runs to the machine
//! rather than to the code.

use std::time::Instant;

use crate::stats::median;

/// Kernel ticks per second in `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// On-CPU time of this process in seconds, summed over all its threads
/// (exited ones included), at nanosecond resolution.
///
/// This is the clock `run_s` and `setup_s` use. On a paravirtualised
/// guest with steal accounting the kernel excludes hypervisor steal from
/// it, so a neighbour taking the physical CPU does not lengthen a rep.
pub fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked below) for the whole call, and the
    // kernel writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux /proc and assumes a 64-bit timespec");

/// Wall and CPU clocks plus the machine-wide steal counter, read together
/// so a later snapshot yields all three deltas.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    wall: Instant,
    cpu: f64,
    steal_ticks: Option<u64>,
}

impl Snapshot {
    /// Reads the clocks now.
    pub fn now() -> Self {
        Snapshot {
            wall: Instant::now(),
            cpu: cpu_now(),
            steal_ticks: std::fs::read_to_string("/proc/stat")
                .ok()
                .and_then(|s| parse_steal_ticks(&s)),
        }
    }

    /// `(wall_s, cpu_s, steal_s)` elapsed since `self`. Steal reads 0 when
    /// `/proc/stat` is unreadable.
    pub fn since(&self) -> (f64, f64, f64) {
        let now = Snapshot::now();
        let steal = match (self.steal_ticks, now.steal_ticks) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / USER_HZ,
            _ => 0.0,
        };
        (
            now.wall.duration_since(self.wall).as_secs_f64(),
            now.cpu - self.cpu,
            steal,
        )
    }
}

/// The steal column (8th value) of the aggregate `cpu` line of
/// `/proc/stat`, in `USER_HZ` ticks summed over all CPUs.
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// `VmHWM` (peak resident set) in kB from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(proc_status: &str) -> Option<u64> {
    let line = proc_status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// Peak resident set of this process in MB (2^20 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// A fixed, repository-independent probe: a byte-code interpreter that
/// runs a pseudo-random program over an 8 MiB table. Its unpredictable
/// dispatch, dependent loads and ALU work are the mix a cycle simulator
/// spends its time on. Across a 2-vCPU KVM guest's busy and quiet phases
/// it followed the simulator more closely (correlation about 0.7 per rep)
/// than pointer-chasing, streaming or pure-ALU probes did. The simulator
/// never runs this code, so a change to the repository cannot move it.
pub struct Probe {
    code: Vec<u8>,
    mem: Vec<u64>,
}

/// One probe run on a 2-vCPU KVM guest (Intel Xeon, 105 MiB L3) in a quiet
/// phase, in CPU seconds. It only fixes the scale of probe-scaled times,
/// which read as CPU seconds on that machine in that phase.
pub const PROBE_REF_S: f64 = 0.035;

impl Probe {
    /// Builds the program and its data (a few milliseconds).
    pub fn new() -> Self {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let code = (0..2_000_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        Probe {
            code,
            mem: vec![3; 1 << 20],
        }
    }

    /// Runs the program once and returns its CPU seconds.
    pub fn run(&mut self) -> f64 {
        let start = cpu_now();
        let mut r = [1u64; 8];
        let n = self.mem.len();
        for (pc, &op) in self.code.iter().enumerate() {
            let (a, b) = ((op & 7) as usize, ((op >> 3) & 7) as usize);
            let mem = &mut self.mem;
            match (op >> 2) & 15 {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] = r[a].wrapping_mul(r[b] | 1),
                2 => r[a] ^= r[b].rotate_left(7),
                3 => r[a] = mem[r[b] as usize % n],
                4 => mem[r[a] as usize % n] = r[b],
                5 if r[a] & 1 == 0 => r[b] = r[b].wrapping_sub(pc as u64),
                6 if r[a] > r[b] => r.swap(a, b),
                7 => r[a] >>= r[b] & 31,
                8 => r[a] = mem[(r[a] ^ r[b]) as usize % n].wrapping_add(1),
                9 if r[b] % 3 == 0 => r[a] = !r[a],
                10 => r[a] = r[a].wrapping_add(pc as u64),
                11 => r[a] = r[a].wrapping_add(u64::from(r[b].count_ones())),
                12 => mem[r[b] as usize % n] ^= r[a],
                13 => r[a] = r[a].min(r[b]).wrapping_add(3),
                14 if r[a] & 4 != 0 => r[a] = mem[(pc * 31) % n],
                15 => r[a] = r[a].wrapping_sub(r[b]),
                _ => {}
            }
        }
        std::hint::black_box(r);
        cpu_now() - start
    }

    /// Median CPU seconds of five runs.
    pub fn calibrate(&mut self) -> f64 {
        let runs: Vec<f64> = (0..5).map(|_| self.run()).collect();
        median(&runs)
    }
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let stat = "cpu  64035 0 4752 454798 437 0 195 7362 0 0\n\
                    cpu0 32000 0 2000 227000 200 0 100 3600 0 0\nintr 1 2\n";
        assert_eq!(parse_steal_ticks(stat), Some(7362));
    }

    #[test]
    fn steal_parser_rejects_short_or_missing_lines() {
        assert_eq!(parse_steal_ticks("cpu  1 2 3 4\n"), None);
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_steal_ticks(""), None);
    }

    #[test]
    fn vm_hwm_in_kb() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    1832 kB\nVmRSS:\t 1800 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1832));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 12 kB\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat readable");
        assert!(parse_steal_ticks(&stat).is_some());
    }

    #[test]
    fn probe_is_deterministic_work() {
        let (mut a, mut b) = (Probe::new(), Probe::new());
        assert!(a.run() > 0.0);
        b.run();
        assert_eq!(a.mem, b.mem);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let start = cpu_now();
        let mut acc = 0u64;
        for i in 0..5_000_000u64 {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_now() > start, "{acc}");
    }
}
