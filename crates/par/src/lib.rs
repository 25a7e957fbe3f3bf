//! Deterministic data-parallel helpers over `std::thread::scope`.
//!
//! The build environment has no crates.io access, so this crate stands in
//! for rayon: it provides exactly the fork-join shapes the workspace's
//! hot paths need — campaign point fan-out, window planning, dense
//! kernels — with **deterministic, index-ordered results**: a parallel
//! run produces bit-identical output to a serial run.
//!
//! Work is split into one contiguous index range per worker (chunks
//! being independent but similar in cost, contiguous splitting also
//! preserves cache locality of the underlying graph scans). With the
//! `parallel` feature disabled — or when [`num_threads`] resolves to 1 —
//! every helper degrades to the obvious serial loop on the calling
//! thread.
//!
//! Thread count resolution: `HYGCN_THREADS` beats `RAYON_NUM_THREADS`
//! beats [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread-count override; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for this process (pass `None` to clear).
///
/// Takes precedence over the environment variables — the hook tests
/// and benchmarks use to compare serial and parallel runs within one
/// process.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count helpers use.
///
/// Resolution order: [`set_thread_override`], then the `HYGCN_THREADS`
/// environment variable, then `RAYON_NUM_THREADS` (honored so
/// rayon-style deployment scripts keep working), then the machine's
/// available parallelism. Always at least 1. With the `parallel` feature
/// disabled this is always 1.
pub fn num_threads() -> usize {
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
    #[cfg(feature = "parallel")]
    {
        let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
        if forced > 0 {
            return forced;
        }
        for var in ["HYGCN_THREADS", "RAYON_NUM_THREADS"] {
            if let Some(n) = std::env::var(var)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
            {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Splits `n` items into at most `workers` contiguous `(start, end)`
/// ranges of near-equal size, in index order.
pub fn split_ranges(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.clamp(1, n.max(1));
    let base = n / workers;
    let extra = n % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        if len == 0 {
            break;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// `f` runs concurrently across workers but the output `Vec` is assembled
/// in index order, so the result is identical to
/// `(0..n).map(f).collect()`.
pub fn par_map_index<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = num_threads();
    if workers <= 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let ranges = split_ranges(n, workers);
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(start, end)| {
                scope.spawn({
                    let f = &f;
                    move || (start..end).map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            // Re-raise a worker panic on the caller's thread with the
            // original payload rather than a second, less useful panic.
            parts.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
    });
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend(p);
    }
    out
}

/// Maps `f` over a slice, returning results in item order (the parallel
/// analogue of `items.iter().map(f).collect()`).
pub fn par_map_slice<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_index(items.len(), |i| f(i, &items[i]))
}

/// Splits `data` — interpreted as rows of `row_len` elements — into one
/// contiguous slab per worker and calls `f(first_row, slab)` on each.
///
/// Unlike a per-row callback, `f` sees a whole *range* of rows,
/// so per-worker scratch state (accumulators, reusable buffers) amortizes
/// across the worker's rows instead of being re-created per row. Each row
/// is visited exactly once; determinism holds whenever `f` writes only
/// through its slab.
pub fn par_slabs_mut<T, F>(data: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    debug_assert_eq!(data.len() % row_len, 0, "data must be whole rows");
    let n_rows = data.len() / row_len;
    let workers = num_threads();
    if workers <= 1 || n_rows < 2 {
        f(0, data);
        return;
    }
    let ranges = split_ranges(n_rows, workers);
    std::thread::scope(|scope| {
        let mut rest = data;
        for &(start, end) in &ranges {
            let (mine, tail) = rest.split_at_mut((end - start) * row_len);
            rest = tail;
            let f = &f;
            scope.spawn(move || f(start, mine));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_everything_in_order() {
        for n in [0usize, 1, 7, 64, 1000] {
            for w in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(n, w);
                let mut expect = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, expect);
                    assert!(e > s);
                    expect = e;
                }
                assert_eq!(expect, n);
            }
        }
    }

    #[test]
    fn map_index_matches_serial() {
        let par = par_map_index(1000, |i| i * i);
        let ser: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn map_slice_preserves_order() {
        let items: Vec<u64> = (0..517).collect();
        let out = par_map_slice(&items, |i, &x| x + i as u64);
        assert_eq!(out, items.iter().map(|&x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(par_map_index(0, |i| i).is_empty());
        let mut empty: Vec<u8> = Vec::new();
        par_slabs_mut(&mut empty, 4, |_, _| {});
    }

    #[test]
    fn slabs_cover_each_row_once() {
        let mut data = vec![0u32; 37 * 3];
        par_slabs_mut(&mut data, 3, |first_row, slab| {
            for (k, row) in slab.chunks_mut(3).enumerate() {
                for v in row.iter_mut() {
                    *v += (first_row + k) as u32;
                }
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / 3) as u32, "element {i}");
        }
    }
}
