//! The host-speed reference loop.
//!
//! A fixed piece of work — integer hashing chained through dependent
//! random reads, fifteen of every sixteen from a 16 KiB table and the rest
//! from a 4 MiB one, then four independent hash-and-read chains over the
//! 16 KiB table — timed before and after every trial. The loop lives
//! here, in the benchmark's own files, so no change to the program can
//! change it. Host-time metrics are scaled to a nominal host by
//! `NOMINAL_REF_S / ref`, where `ref` is the run's median timing: when
//! the clock drops or a neighbour crowds the caches, the loop and the
//! workload slow down together and the scaled value stays put.
//!
//! The mix is measured, not guessed. On the shared 2-vCPU host the bounds
//! were set on, scaling by the 16 KiB chain alone or the 4 MiB chain
//! alone each left one of the three gated workloads noisier than the
//! other (the cache-resident part missed cache contention, the 4 MiB part
//! overstated it for the small working sets); the blend, about half its
//! time in each, narrowed the run-to-run spread of every workload. The
//! dependent chain measures latency; the independent chains add the
//! instruction throughput a busy sibling hyperthread takes away, and
//! blending them narrowed the spread again. Each phase takes about half
//! of the timing.
//!
//! Host time here is the thread's CPU time ([`cpu_now`]): on a shared VM
//! it leaves out the time the vCPU was stolen by the hypervisor or the
//! thread was preempted, which are the noisiest parts of wall time.

use std::hint::black_box;
use std::time::Instant;

/// Small table, in 64-bit words (16 KiB: cache-resident).
const SMALL_WORDS: usize = 1 << 11;
/// Large table, in 64-bit words (4 MiB: past L2, inside a typical L3).
const LARGE_WORDS: usize = 1 << 19;
/// Dependent hash-and-read steps per timing; every sixteenth reads the
/// large table.
const STEPS: u32 = 1 << 19;
/// Rounds of the four independent chains per timing (six hash-and-reads
/// of the independent phase cost about one dependent step).
const ILP_ROUNDS: u32 = STEPS / 4 * 6;

/// Reference time of one timing on the nominal host (the 2-vCPU VM the
/// bounds were set on). Only a scale: any constant would do, this one
/// keeps normalised values near raw ones on that host.
pub const NOMINAL_REF_S: f64 = 0.020;

/// The reference loop's working set.
pub struct HostRef {
    small: Vec<u64>,
    large: Vec<u64>,
}

/// This thread's CPU time in seconds (`CLOCK_THREAD_CPUTIME_ID`:
/// steal and preemption excluded, nanosecond resolution). Falls back to
/// the monotonic clock off Linux or if the clock is unavailable.
#[must_use]
pub fn cpu_now() -> f64 {
    thread_cpu_s().unwrap_or_else(|| {
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
    })
}

#[cfg(target_os = "linux")]
fn thread_cpu_s() -> Option<f64> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    if std::mem::size_of::<usize>() != 8 {
        return None;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, and the C library's `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// SplitMix64 finaliser: the loop's integer hash.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl HostRef {
    /// Builds the tables from a fixed seed (not timed).
    #[must_use]
    pub fn new() -> Self {
        let mut x = 0x5EED_0FC0_FFEE;
        let mut fill = |n: usize| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    x = mix(x);
                    x
                })
                .collect()
        };
        let small = fill(SMALL_WORDS);
        let large = fill(LARGE_WORDS);
        HostRef { small, large }
    }

    /// One timing of the loop, in CPU seconds. In the first phase each
    /// read address depends on the previous read (hashing plus memory
    /// latency); in the second, four chains run side by side (hashing
    /// throughput).
    #[must_use]
    pub fn time_once(&self) -> f64 {
        let start = cpu_now();
        let mut x = 1u64;
        for step in 0..STEPS {
            let word = if step % 16 == 15 {
                self.large[(x as usize) & (LARGE_WORDS - 1)]
            } else {
                self.small[(x as usize) & (SMALL_WORDS - 1)]
            };
            x = mix(x ^ word);
        }
        let mut chains = [x, x ^ 1, x ^ 2, x ^ 3];
        for _ in 0..ILP_ROUNDS {
            for c in &mut chains {
                *c = mix(*c ^ self.small[(*c as usize) & (SMALL_WORDS - 1)]);
            }
        }
        black_box(chains);
        cpu_now() - start
    }
}

impl Default for HostRef {
    fn default() -> Self {
        Self::new()
    }
}
