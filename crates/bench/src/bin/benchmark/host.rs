//! The host: the program's peak heap, and a clock calibrated against the
//! host's speed.
//!
//! On a shared host the speed one core delivers drifts — by ±15 % over
//! minutes on the 2-vCPU Xeon VM the reference numbers were recorded on —
//! which no amount of repetition inside one run averages out. So durations are also
//! measured in *reference seconds*: a fixed compute [`Kernel`] (this file's
//! own code, no library calls) runs before the first timed job and after
//! each one, and each job's host seconds are scaled by the kernel's nominal
//! time over its mean time on either side of the job. A host running 20 %
//! slow for a minute then reads the same as a nominal one, while a slower
//! program still reads slower. The raw host seconds are kept next to the
//! scaled ones.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Once;
use std::time::Instant;

/// The scalar kernel's host time on a nominal, quiet host (the 2-vCPU Xeon
/// VM the reference numbers were recorded on); one reference second is one
/// host second there.
pub const REF_SCALAR_S: f64 = 0.048;
/// The streaming pass's host time on the same host.
pub const REF_STREAM_S: f64 = 0.018;

/// What a clock's calibration kernel exercises, matched to the workload it
/// calibrates. When the host is busy, work that streams through the shared
/// cache slows more than scalar work does, so the trace sweep's reference
/// times spread less across seeds with the stream in its kernel, while the
/// fleets' times spread more with it (README.md, *Reference seconds*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Scalar floating point on a working set that fits a core's cache, as
    /// in the fleets' slot loop.
    Scalar,
    /// The scalar kernel, then a streaming pass over a buffer many times a
    /// core's cache, as the trace sweep streams its corpus.
    ScalarAndStream,
}

impl Kernel {
    /// Runs the kernel once and returns its host time.
    fn run_s(self) -> f64 {
        let t0 = Instant::now();
        scalar();
        if self == Kernel::ScalarAndStream {
            stream();
        }
        t0.elapsed().as_secs_f64()
    }

    /// The kernel's host time on the nominal host.
    fn nominal_s(self) -> f64 {
        match self {
            Kernel::Scalar => REF_SCALAR_S,
            Kernel::ScalarAndStream => REF_SCALAR_S + REF_STREAM_S,
        }
    }
}

/// u64 words in the streaming buffer: 32 MiB, sixteen times a core's L2.
const STREAM_WORDS: usize = 4 << 20;
#[allow(clippy::declare_interior_mutable_const)] // only used to fill `STREAM`
const ZERO: AtomicU64 = AtomicU64::new(0);
/// A static rather than a heap buffer, so `peak_heap_mb` does not count it.
static STREAM: [AtomicU64; STREAM_WORDS] = [ZERO; STREAM_WORDS];
static STREAM_FILLED: Once = Once::new();

/// Eight passes summing the streaming buffer.
fn stream() {
    // Written once, so its pages are real memory, not the shared zero page.
    STREAM_FILLED.call_once(|| {
        for (i, w) in STREAM.iter().enumerate() {
            w.store((i as u64).wrapping_mul(0x9e37), Relaxed);
        }
    });
    let mut s = 0u64;
    for _ in 0..8 {
        for w in &STREAM {
            s = s.wrapping_add(w.load(Relaxed));
        }
    }
    black_box(s);
}

/// The scalar kernel: a chaotic (hence unvectorizable) logistic-map walk
/// feeding `exp` and `sqrt` through a data-dependent branch — the kind of
/// scalar floating-point work the slot loop does.
fn scalar() {
    let mut acc = 0.0f64;
    let mut x = black_box(0.123f64);
    for _ in 0..6_000 {
        for _ in 0..1_024 {
            x = 3.9 * x * (1.0 - x);
            acc += if x > 0.5 {
                (2.0 * x).exp()
            } else {
                (1.0 + x).sqrt()
            };
        }
    }
    black_box(acc);
}

/// Times a sequence of jobs in host and in reference seconds.
#[derive(Debug)]
pub struct CalibratedClock {
    kernel: Kernel,
    last_kernel_s: f64,
    /// Host seconds of each job.
    pub host_s: Vec<f64>,
    /// Reference seconds of each job.
    pub ref_s: Vec<f64>,
    /// Every kernel time, the first one before the first job.
    pub kernel_s: Vec<f64>,
}

impl CalibratedClock {
    pub fn new(kernel: Kernel) -> CalibratedClock {
        kernel.run_s(); // warm-up: page faults and cold caches
        let k = kernel.run_s();
        CalibratedClock {
            kernel,
            last_kernel_s: k,
            host_s: Vec::new(),
            ref_s: Vec::new(),
            kernel_s: vec![k],
        }
    }

    /// Runs `job`, then the kernel; records the job's durations.
    pub fn time<R>(&mut self, job: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = job();
        let host = t0.elapsed().as_secs_f64();
        let k = self.kernel.run_s();
        let speed = self.kernel.nominal_s() / (0.5 * (self.last_kernel_s + k));
        self.last_kernel_s = k;
        self.host_s.push(host);
        self.ref_s.push(host * speed);
        self.kernel_s.push(k);
        r
    }

    /// `(host seconds, reference seconds)` of the latest job.
    pub fn last(&self) -> (f64, f64) {
        let n = self.host_s.len();
        assert!(n > 0, "no job timed yet");
        (self.host_s[n - 1], self.ref_s[n - 1])
    }
}

/// Peak resident set of this process (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Live heap bytes, and their peak. Statistics only: they publish no other
/// data, so `Relaxed` suffices, and the benchmark allocates from one thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

/// The system allocator, counting live heap bytes and their peak. Unlike
/// the resident set, the count does not depend on how the C allocator
/// happens to keep freed pages, so one seed reads the same on every run.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// are plain atomics that never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Peak live heap since the process started, MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
