//! Deterministic fork-join parallelism for the Cyclops hot paths.
//!
//! The training and simulation pipelines are dominated by embarrassingly
//! parallel numeric work: finite-difference Jacobian columns, exhaustive
//! alignment grids, per-window link evaluation, speed-ladder sweeps. This
//! crate provides the small fork-join substrate they all share.
//!
//! Design rules (enforced by tests across the workspace):
//!
//! * **Bit-identical to serial.** Every helper maps an index space through a
//!   pure function and collects results in index order. There are no
//!   atomics-based float accumulations and no scheduling-dependent reduction
//!   orders, so a parallel run produces byte-for-byte the output of the
//!   serial loop regardless of thread count.
//! * **Serial at one thread.** With one thread every helper runs the plain
//!   serial loop, with no thread spawned; `CYCLOPS_THREADS=1` is the serial
//!   configuration. Work smaller than `min_chunk` per thread also runs
//!   serially to avoid spawn overhead.
//! * **Reproducible sizing.** Thread count resolves as: programmatic
//!   override ([`with_threads`]) → `CYCLOPS_THREADS` env var → the
//!   machine's available parallelism. Benchmarks pin it for stable CI
//!   numbers. The env var and the available parallelism are read once, at
//!   the first unpinned call, and kept for the life of the process; the
//!   [`with_threads`] override stays dynamic.
//!
//! The container this repo builds in cannot fetch crates.io, so rayon is
//! not available; the implementation uses `std::thread::scope`, which is
//! all the fork-join shape here needs. A thread is spawned per chunk per
//! call — negligible against the millisecond-scale chunks these pipelines
//! feed (measured in `BENCH_*.json`; see the README's Performance section).

#![deny(missing_docs)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// `0` means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Held for the whole of an outermost [`with_threads`] call. The override is
/// process-wide, so without it two tests pinning different widths at once
/// run at each other's width.
static PIN: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread is inside [`with_threads`] (and so holds [`PIN`]).
    static PINNED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the thread count pinned to `n`, restoring the previous
/// setting afterwards (also on panic). Values above the hardware
/// parallelism are honoured — the serial/parallel equivalence tests rely on
/// that to exercise real thread handoffs even on small CI runners. Calls
/// from different threads run one at a time, so each sees its own width
/// throughout; a nested call on the same thread re-pins. A worker spawned
/// inside `f` must not call it.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore {
        threads: usize,
        pinned: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.threads, Ordering::SeqCst);
            PINNED.set(self.pinned);
        }
    }
    // Declared first, so it unlocks after `_restore` has run. The lock
    // guards no data, so a poisoned one is as good as a clean one.
    let _pin = (!PINNED.get()).then(|| PIN.lock().unwrap_or_else(PoisonError::into_inner));
    let _restore = Restore {
        threads: THREAD_OVERRIDE.swap(n, Ordering::SeqCst),
        pinned: PINNED.replace(true),
    };
    f()
}

/// The thread count `par_*` calls will use: override → `CYCLOPS_THREADS` →
/// available hardware parallelism. Always ≥ 1.
///
/// Without an override, the count is resolved once per process, at the
/// first such call: a later change to `CYCLOPS_THREADS` is not seen.
/// (Reading the available parallelism reads cgroup files on Linux, which
/// costs microseconds per call.)
pub fn max_threads() -> usize {
    let ovr = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if ovr > 0 {
        return ovr;
    }
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    *RESOLVED.get_or_init(|| {
        resolve_threads(
            std::env::var("CYCLOPS_THREADS").ok().as_deref(),
            std::thread::available_parallelism,
        )
    })
}

/// The thread count for the `CYCLOPS_THREADS` value `env`: a positive
/// integer is taken as given, and anything else defers to `hardware`.
fn resolve_threads(
    env: Option<&str>,
    hardware: impl FnOnce() -> std::io::Result<std::num::NonZeroUsize>,
) -> usize {
    match env.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => hardware().map_or(1, |n| n.get()),
    }
}

/// Whether the fork-join path is compiled in. Always `true`: the thread
/// count is the only parallelism setting. Kept for host metadata.
pub const fn parallel_compiled() -> bool {
    true
}

/// Mixes two `u64`s into one well-distributed seed (the SplitMix64 finalizer
/// over a golden-ratio combination).
///
/// The stateful simulations (deployment noise RNGs) cannot share one RNG
/// across parallel work items without the draw order depending on the thread
/// schedule. Instead, callers derive one independent stream per item as
/// `seed_from_u64(mix64(stage_seed, item_index))` — a pure function of the
/// stage and the item, so serial and parallel runs consume identical streams.
pub const fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `0..n` through `f`, returning results in index order.
///
/// Splits the index space into at most [`max_threads`] contiguous chunks of
/// at least `min_chunk` indices; falls back to the plain serial loop when
/// one chunk suffices. `f` must be pure for the serial/parallel outputs to
/// agree — every caller in this workspace guarantees that.
pub fn par_map_indexed<R, F>(n: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let Some(chunk) = chunk_len(n, min_chunk) else {
        return (0..n).map(f).collect();
    };
    let mut out: Vec<R> = Vec::with_capacity(n);
    for (_, block) in spawn_blocks(n, chunk, |block| block.map(&f).collect::<Vec<R>>()) {
        out.extend(block);
    }
    out
}

/// Runs `f` once per block of `0..n`, returning each block with its result
/// in index order: the blocks are the contiguous, non-empty chunks of
/// [`par_map_indexed`], at most [`max_threads`] of at least `min_chunk`
/// indices each, one thread per block. One block, `0..n`, runs on the
/// calling thread.
pub fn par_blocks<R, F>(n: usize, min_chunk: usize, f: F) -> Vec<(Range<usize>, R)>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    match chunk_len(n, min_chunk) {
        None => vec![(0..n, f(0..n))],
        Some(chunk) => spawn_blocks(n, chunk, f),
    }
}

/// The length of each thread's chunk of `0..n`: at most [`max_threads`]
/// chunks of at least `min_chunk` indices; `None` when one chunk suffices.
fn chunk_len(n: usize, min_chunk: usize) -> Option<usize> {
    let threads = n
        .checked_div(min_chunk.max(1))
        .unwrap_or(1)
        .clamp(1, max_threads());
    (threads > 1).then(|| n.div_ceil(threads))
}

/// `f` over the `chunk`-long blocks of `0..n`, one scoped thread each, in
/// index order.
fn spawn_blocks<R, F>(n: usize, chunk: usize, f: F) -> Vec<(Range<usize>, R)>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..n.div_ceil(chunk))
            .map(|k| {
                let block = k * chunk..((k + 1) * chunk).min(n);
                s.spawn(move || (block.clone(), f(block)))
            })
            .collect();
        // Panics inside workers propagate to the caller.
        handles
            .into_iter()
            .map(|h| h.join().expect("cyclops-par worker panicked"))
            .collect()
    })
}

/// Maps a slice through `f`, returning results in input order. See
/// [`par_map_indexed`] for the chunking and determinism contract.
pub fn par_map<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), min_chunk, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let out = par_map_indexed(1000, 1, |i| i * 3);
        assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_bitwise_for_floats() {
        let f = |i: usize| ((i as f64) * 0.1).sin().exp();
        let serial: Vec<f64> = (0..10_000).map(f).collect();
        let parallel = with_threads(8, || par_map_indexed(10_000, 16, f));
        // Bit-identical, not just approximately equal.
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn blocks_cover_the_indices_in_order() {
        for (n, min_chunk, threads) in [(0, 1, 4), (1, 1, 4), (9, 1, 4), (25, 1, 2), (10, 3, 8)] {
            let blocks = with_threads(threads, || par_blocks(n, min_chunk, |b| b.len()));
            let ranges: Vec<_> = blocks.iter().map(|(b, _)| b.clone()).collect();
            assert!(blocks.iter().all(|(b, len)| b.len() == *len));
            assert_eq!(ranges.first().map(|b| b.start), Some(0));
            assert_eq!(ranges.last().map(|b| b.end), Some(n));
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            assert!(n == 0 || ranges.iter().all(|b| !b.is_empty()));
            assert!(ranges.len() <= threads.max(1));
        }
        assert_eq!(
            with_threads(1, || par_blocks(7, 1, |b| b)),
            vec![(0..7, 0..7)]
        );
    }

    #[test]
    fn small_inputs_run_serial() {
        // min_chunk larger than n forces a single chunk; must still work.
        let out = par_map_indexed(5, 100, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn with_threads_restores() {
        with_threads(5, || {
            with_threads(3, || assert_eq!(max_threads(), 3));
            assert_eq!(max_threads(), 5);
        });
        // Concurrent pins do not see each other's width.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for n in [2, 7] {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        with_threads(n, || {
                            for _ in 0..100 {
                                assert_eq!(max_threads(), n);
                            }
                        });
                    }
                });
            }
        });
    }

    #[test]
    fn thread_count_resolves_once_per_process() {
        let hw = || Ok(std::num::NonZeroUsize::new(6).unwrap());
        let no_hw = || Err(std::io::Error::other("no cgroup"));
        assert_eq!(resolve_threads(Some(" 3 "), hw), 3);
        assert_eq!(resolve_threads(Some("0"), hw), 6);
        assert_eq!(resolve_threads(Some("many"), hw), 6);
        assert_eq!(resolve_threads(None, hw), 6);
        assert_eq!(resolve_threads(None, no_hw), 1);
        // Unpinned calls keep the first resolution, whatever the env var
        // says later; a pin still overrides it and is undone after.
        let first = with_threads(0, max_threads);
        let before = std::env::var_os("CYCLOPS_THREADS");
        std::env::set_var("CYCLOPS_THREADS", if first == 1 { "2" } else { "1" });
        assert_eq!(with_threads(0, max_threads), first);
        assert_eq!(with_threads(first + 4, max_threads), first + 4);
        assert_eq!(with_threads(0, max_threads), first);
        match before {
            Some(v) => std::env::set_var("CYCLOPS_THREADS", v),
            None => std::env::remove_var("CYCLOPS_THREADS"),
        }
    }

    #[test]
    fn mix64_decorrelates_nearby_inputs() {
        // Consecutive (seed, index) pairs must yield thoroughly different
        // outputs — a plain XOR would leave neighbouring streams correlated.
        let mut seen = std::collections::HashSet::new();
        for a in 0..50u64 {
            for b in 0..50u64 {
                assert!(seen.insert(mix64(a, b)), "collision at ({a}, {b})");
            }
        }
        // Single-bit input change flips roughly half the output bits.
        let d = (mix64(7, 3) ^ mix64(7, 2)).count_ones();
        assert!((16..=48).contains(&d), "poor avalanche: {d} bits");
    }

    #[test]
    fn empty_input() {
        assert!(par_map_indexed(0, 1, |i| i).is_empty());
    }
}
