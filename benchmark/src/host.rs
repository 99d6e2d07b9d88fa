//! Host-side readings: clocks, CPU time, memory, and the health signals
//! (`host.calib_ns`, `host.steal_share`) that tell a reader whether a
//! timing moved because the code did or because the host did.
//!
//! Everything comes from `/proc`, read with plain file I/O (the package
//! forbids `unsafe`, so no `getrusage`/`clock_gettime` calls).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs;
use std::time::Instant;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// Nanoseconds the calling thread has spent on a CPU (user + system),
/// from the scheduler's own accounting. Falls back to the process-wide
/// tick counters when the kernel lacks schedstats.
pub fn thread_cpu_ns() -> u64 {
    read("/proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or_else(process_cpu_ns)
}

/// User + system time of the whole process (all threads), from
/// `/proc/self/stat`. Tick resolution (10 ms); used only for ratios over
/// multi-second regions.
pub fn process_cpu_ns() -> u64 {
    let stat = read("/proc/self/stat");
    // The command name may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is index 0, so utime/stime (fields 14/15) are 11/12.
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * 10_000_000
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, all)` jiffies summed over all CPUs since boot.
fn cpu_jiffies() -> (u64, u64) {
    let stat = read("/proc/stat");
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest times are
    // already inside user/nice).
    (v.get(7).copied().unwrap_or(0), v.iter().take(8).sum())
}

/// A point-in-time reading of the clocks a region is measured with.
pub struct Stamp {
    wall: Instant,
    cpu_ns: u64,
    jiffies: (u64, u64),
}

/// What elapsed between a [`Stamp`] and now.
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    pub wall_s: f64,
    /// On-CPU time of the calling thread as the kernel accounts it (on
    /// the reference guest this leaves out hypervisor steal).
    pub cpu_s: f64,
    /// Steal on all CPUs as a share of all CPU time of the region.
    pub steal_share: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Stamp {
            wall: Instant::now(),
            cpu_ns: thread_cpu_ns(),
            jiffies: cpu_jiffies(),
        }
    }

    pub fn elapsed(&self) -> Elapsed {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = thread_cpu_ns().saturating_sub(self.cpu_ns) as f64 / 1e9;
        let (steal, total) = cpu_jiffies();
        let d_total = total.saturating_sub(self.jiffies.1);
        let steal_share = if d_total == 0 {
            0.0
        } else {
            steal.saturating_sub(self.jiffies.0) as f64 / d_total as f64
        };
        Elapsed {
            wall_s,
            cpu_s,
            steal_share,
        }
    }
}

/// What [`calib_ns`] reads on the reference host (2-vCPU Firecracker
/// guest, Xeon @ 2.1 GHz) while nothing disturbs it.
pub const CALIB_REF_NS: f64 = 160.0;

/// Nodes of the calibration kernel's model, one cache line each (4 MiB).
const CALIB_NODES: usize = 1 << 16;
/// Events pending in its scheduler at any time (a 1 MiB binary heap).
const CALIB_PENDING: u32 = 1 << 16;
/// Events one reading handles.
const CALIB_EVENTS: u32 = 1 << 18;

/// SplitMix64's output function, inlined so that the kernel shares no code
/// with the repository it is the yardstick for.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The calibration kernel's memory, kept between readings so that a
/// reading pays for no allocation.
struct Calib {
    nodes: Vec<[u64; 8]>,
    pending: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Calib {
    /// A discrete-event simulation in miniature, the same one at every
    /// reading: pop the earliest event, update the node it names (a random
    /// cache line) by one of four handlers, schedule one successor.
    fn simulate(&mut self) -> u64 {
        let mut x = 0x5EED;
        self.pending.clear();
        for _ in 0..CALIB_PENDING {
            let r = mix(&mut x);
            self.pending.push(Reverse((r >> 48, r as u32)));
        }
        for _ in 0..CALIB_EVENTS {
            let Reverse((when, node)) = self.pending.pop().expect("one in, one out");
            let r = mix(&mut x);
            let st = &mut self.nodes[node as usize % CALIB_NODES];
            st[0] += 1;
            let next = match r & 3 {
                0 => {
                    st[1] = st[1].wrapping_add(when);
                    node.wrapping_add(1)
                }
                1 => {
                    st[2] ^= r;
                    (r >> 20) as u32
                }
                2 => {
                    if st[3] > st[4] {
                        st[4] += 3;
                    } else {
                        st[3] += 2;
                    }
                    node.wrapping_mul(5)
                }
                _ => {
                    st[5] = st[5].max(when);
                    st[6] = st[6].wrapping_add(st[0]);
                    (r >> 36) as u32
                }
            };
            let then = when + 1 + ((r >> 8) & 0xFFFF);
            self.pending.push(Reverse((then, next)));
        }
        self.nodes[0][0]
    }
}

/// Time the calibration kernel and return nanoseconds per event of it — a
/// number that depends on the host and its present state and not on the
/// repository. The kernel is a discrete-event simulation because that is
/// what moves as the workloads do when the host changes pace (README, "Run
/// shape"): a register-resident arithmetic loop followed them only loosely.
pub fn calib_ns() -> f64 {
    thread_local!(static CALIB: RefCell<Calib> = RefCell::new(Calib {
        nodes: vec![[0; 8]; CALIB_NODES],
        pending: BinaryHeap::with_capacity(CALIB_PENDING as usize + 1),
    }));
    CALIB.with(|c| {
        let t = Instant::now();
        std::hint::black_box(c.borrow_mut().simulate());
        t.elapsed().as_nanos() as f64 / CALIB_EVENTS as f64
    })
}

/// CPUs the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
