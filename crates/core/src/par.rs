//! Minimal deterministic fork-join helper for the synthesis hot paths.
//!
//! The build environment cannot fetch rayon, so the embarrassingly
//! parallel layers of FTQS (per-pivot sub-schedule generation, per-arc
//! interval-partitioning sweeps) use this scoped-thread fork-join instead.
//! The contract mirrors rayon's indexed `par_iter().map().collect()`
//! (state-threading included, so callers that need no per-worker state
//! pass `()`):
//!
//! * `f(state, i)` is called exactly once for every `i in 0..count`,
//! * the result vector is ordered by `i` regardless of thread count,
//! * on a single-CPU host, under a worker cap of 1, or for tiny inputs
//!   the calls happen inline on the caller's thread.
//!
//! Each worker owns a contiguous index chunk, so outputs are collected
//! without locks and the work distribution is deterministic.
//!
//! The chunk shape is part of the contract: a worker's state sees its
//! indices as one **contiguous ascending run** (and the serial path sees
//! the whole range ascending). The incremental FTQS expansion relies on
//! this — each worker advances a private committed-prefix cursor that
//! only moves forward through the pivot positions (see `PrefixCursor` in
//! [`crate::ftss`]). A test below pins the guarantee.

use std::cell::Cell;

thread_local! {
    /// Per-request worker cap installed by [`with_max_workers`]; `None`
    /// means "use every available CPU".
    static MAX_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread's worker cap set to `cap` (restoring
/// the previous cap afterwards). `Some(1)` forces fully serial execution.
/// Outputs are bit-identical at any setting — the cap only bounds how many
/// scoped workers [`par_map_collect_with`] spawns.
pub(crate) fn with_max_workers<R>(cap: Option<usize>, f: impl FnOnce() -> R) -> R {
    MAX_WORKERS.with(|w| {
        let previous = w.replace(cap);
        let result = f();
        w.set(previous);
        result
    })
}

/// Indexed fork-join map with per-worker mutable state: `init` runs once
/// per worker (once total on the serial path) and the state is threaded
/// through that worker's indices — always a contiguous ascending run (see
/// the module docs). This is how the FTQS expansion reuses one
/// `SynthesisScratch` and one forward-only checkpoint cursor per worker
/// instead of allocating per candidate child — state must never influence
/// results (outputs stay bit-identical at any worker count).
pub fn par_map_collect_with<S, T, Init, F>(count: usize, init: Init, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut seed = init();
    par_map_collect_seeded(count, &mut seed, init, f)
}

/// [`par_map_collect_with`] with a caller-owned *seed* state: the serial
/// path — and the worker owning the **first** chunk on the parallel path —
/// threads `seed` through its indices, while every additional worker
/// builds its own state with `init`. This lets a long-lived scratch (e.g.
/// the session-owned interval-sweep buffers) serve the whole range on
/// single-worker hosts and the first chunk elsewhere, with at most
/// `workers - 1` extra states built per call — never one per item.
///
/// The chunk contract of the module docs applies unchanged, and state
/// must never influence results.
pub fn par_map_collect_seeded<S, T, Init, F>(count: usize, seed: &mut S, init: Init, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = worker_count(count);
    if threads <= 1 {
        return (0..count).map(|i| f(seed, i)).collect();
    }
    let chunk = count.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let init = &init;
        let mut seed = Some(seed);
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(count);
            if lo >= hi {
                break;
            }
            let seeded = seed.take();
            handles.push(scope.spawn(move || {
                let mut own;
                let state = match seeded {
                    Some(s) => s,
                    None => {
                        own = init();
                        &mut own
                    }
                };
                (lo..hi).map(|i| f(state, i)).collect::<Vec<T>>()
            }));
        }
        for h in handles {
            chunks.push(h.join().expect("parallel synthesis worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(count);
    for c in chunks {
        out.extend(c);
    }
    out
}

/// How many workers to use for `count` items: 1 unless the host has
/// multiple CPUs and there are at least two items. Respects the
/// per-request cap installed by [`with_max_workers`].
fn worker_count(count: usize) -> usize {
    if count < 2 {
        return 1;
    }
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let cap = MAX_WORKERS.with(Cell::get).unwrap_or(usize::MAX);
    available.min(cap).min(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        let out = par_map_collect_with(1000, || (), |(), i| i * 2);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(par_map_collect_with(0, || (), |(), i| i).is_empty());
        assert_eq!(par_map_collect_with(1, || (), |(), i| i + 7), vec![7]);
    }

    #[test]
    fn worker_state_sees_contiguous_ascending_chunks() {
        // Pin the contract the expansion cursors rely on: every state
        // instance observes exactly one ascending run of consecutive
        // indices, with no gaps and no revisits.
        for count in [1usize, 2, 7, 64, 65, 1000] {
            // Each item reports (first index its state saw, own index).
            let out = par_map_collect_with(
                count,
                || None::<usize>,
                |first, i| {
                    let f = *first.get_or_insert(i);
                    assert!(i >= f, "index {i} before its chunk start {f}");
                    (f, i)
                },
            );
            assert_eq!(out.len(), count);
            let mut prev: Option<(usize, usize)> = None;
            for &(first, i) in &out {
                assert_eq!(i, prev.map_or(0, |(_, pi)| pi + 1), "index order broken");
                if let Some((pf, pi)) = prev {
                    if first == pf {
                        assert_eq!(i, pi + 1, "gap inside a chunk");
                    } else {
                        assert_eq!(first, i, "a chunk must start at its first index");
                    }
                }
                prev = Some((first, i));
            }
        }
    }

    #[test]
    fn matches_serial_map_for_odd_sizes() {
        for count in [2usize, 3, 17, 63, 64, 65] {
            let par = par_map_collect_with(count, || (), |(), i| i as u64 * 3 + 1);
            let ser: Vec<u64> = (0..count).map(|i| i as u64 * 3 + 1).collect();
            assert_eq!(par, ser, "count {count}");
        }
    }
}
