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
//! Work is self-scheduled: the workers (the calling thread plus up to
//! `workers - 1` scoped threads) share one atomic counter and each claims
//! the next index as soon as it finishes its previous one. Per-item cost
//! in FTQS falls steeply with the index (early pivots re-schedule the
//! longest suffixes), so equal contiguous chunks would leave the first
//! worker with nearly all the work; one-at-a-time claims balance it. Each
//! worker keeps `(index, value)` pairs and the caller places them by index,
//! so the output never depends on which worker claimed what.
//!
//! Claim order varies from run to run, but one property is part of the
//! contract: a worker's state sees its indices in **strictly ascending**
//! order (and the serial path sees the whole range ascending). The runs
//! need not be contiguous — a worker skips the indices another worker
//! claimed. The incremental FTQS expansion relies on this: each worker
//! advances a private committed-prefix cursor that only moves forward
//! through the pivot positions, absorbing any skipped ones (see
//! `PrefixCursor` in [`crate::ftss`]). Tests below pin the guarantee.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Per-request worker cap installed by [`with_max_workers`]; `None`
    /// means "use every available CPU".
    static MAX_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread's worker cap set to `cap`, restoring
/// the previous cap afterwards — also when `f` panics, so a caught panic
/// never leaks a failed request's cap into the next one. `Some(1)` forces
/// fully serial execution. Outputs are bit-identical at any setting — the
/// cap only bounds how many workers [`par_map_collect_with`] uses.
pub(crate) fn with_max_workers<R>(cap: Option<usize>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            MAX_WORKERS.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(MAX_WORKERS.with(|w| w.replace(cap)));
    f()
}

/// Indexed fork-join map with per-worker mutable state: `init` runs once
/// per worker (once total on the serial path) and the state is threaded
/// through the indices that worker claims — always in ascending order
/// (see the module docs). This is how the FTQS expansion reuses one
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

/// [`par_map_collect_with`] with a caller-owned *seed* state: the calling
/// thread is always one of the workers and threads `seed` through the
/// indices it claims (the whole range on the serial path), while every
/// spawned worker builds its own state with `init`. This lets a
/// long-lived scratch (e.g. the session-owned interval-sweep buffers)
/// serve the caller's claims, with at most `workers - 1` extra states
/// built per call — never one per item.
///
/// The ascending-claims contract of the module docs applies unchanged,
/// and state must never influence results. A panic in `f`, on the caller
/// or on a spawned worker, propagates to the caller with its payload.
pub fn par_map_collect_seeded<S, T, Init, F>(count: usize, seed: &mut S, init: Init, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = worker_count(count);
    if workers <= 1 {
        return (0..count).map(|i| f(seed, i)).collect();
    }
    let next = AtomicUsize::new(0);
    // One worker's loop: claim the next unclaimed index until none is left.
    // `Relaxed` suffices: the counter publishes no data, and each worker's
    // results reach the caller through `join`, which synchronizes.
    let claim = |state: &mut S| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            done.push((i, f(state, i)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers)
            .map(|_| scope.spawn(|| claim(&mut init())))
            .collect();
        let mut place = |done: Vec<(usize, T)>| {
            for (i, value) in done {
                slots[i] = Some(value);
            }
        };
        place(claim(seed));
        for handle in spawned {
            match handle.join() {
                Ok(done) => place(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

/// How many workers to use for `count` items: 1 for fewer than two items
/// or under a cap of 1 (decided before asking the OS), else the host's CPU
/// count bounded by the per-request cap installed by [`with_max_workers`]
/// and by `count`.
fn worker_count(count: usize) -> usize {
    let cap = MAX_WORKERS.with(Cell::get).unwrap_or(usize::MAX);
    if count < 2 || cap <= 1 {
        return 1;
    }
    available_cpus().min(cap).min(count)
}

/// The host's available parallelism, read once per process: the query
/// reads cgroup files and would otherwise cost tens of µs per fork-join.
fn available_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

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

    /// Workers the tests below run with: a cap of 2, or 1 on a 1-CPU host.
    fn test_workers() -> usize {
        available_cpus().min(2)
    }

    /// A worker's state in the tests: a process-unique id (so outputs can
    /// be attributed to their worker) and the indices it was handed.
    struct Tracked {
        id: usize,
        seen: Vec<usize>,
    }

    fn tracked() -> Tracked {
        static NEXT_ID: AtomicUsize = AtomicUsize::new(0);
        Tracked {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            seen: Vec::new(),
        }
    }

    /// Blocks until `done` reaches `target`, giving up after 10 s so a
    /// broken work split fails its assertion instead of hanging.
    fn wait_until(done: &AtomicUsize, target: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while done.load(Ordering::SeqCst) < target && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    #[test]
    fn worker_state_sees_strictly_ascending_claims() {
        // Pin the contract the expansion cursors rely on under real
        // interleaving: every worker meets at a barrier after its first
        // claim, so all of them hold an index before any proceeds. Then
        // every index is handled exactly once, results come back in index
        // order, and each state observes its indices strictly ascending.
        for count in [2usize, 7, 64, 65, 1000] {
            let barrier = Barrier::new(test_workers());
            let out = with_max_workers(Some(2), || {
                par_map_collect_with(count, tracked, |state, i| {
                    match state.seen.last() {
                        Some(&last) => assert!(i > last, "index {i} after {last} on one state"),
                        None => {
                            barrier.wait();
                        }
                    }
                    state.seen.push(i);
                    (state.id, i)
                })
            });
            assert_eq!(out.len(), count);
            for (pos, &(_, i)) in out.iter().enumerate() {
                assert_eq!(i, pos, "count {count}: result out of index order");
            }
            let mut states: Vec<usize> = out.iter().map(|&(id, _)| id).collect();
            states.sort_unstable();
            states.dedup();
            assert_eq!(states.len(), test_workers(), "count {count}");
        }
    }

    #[test]
    fn claims_balance_uneven_items() {
        // One slow item at the front: index 0 does not finish until every
        // other item has. With self-scheduled claims the other worker
        // drains the whole rest, so the state that took index 0 handles
        // nothing else. (Equal contiguous chunks would leave it half the
        // range, after the wait timed out.)
        if test_workers() < 2 {
            return;
        }
        let count = 64;
        let done = AtomicUsize::new(0);
        let out = with_max_workers(Some(2), || {
            par_map_collect_with(count, tracked, |state, i| {
                if i == 0 {
                    wait_until(&done, count - 1);
                }
                done.fetch_add(1, Ordering::SeqCst);
                state.id
            })
        });
        let slow_worker = out[0];
        let handled = out.iter().filter(|&&id| id == slow_worker).count();
        assert_eq!(
            handled, 1,
            "the worker that took the slow item also handled {handled} of {count} items"
        );
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let count = 16;
        // Every worker claims an index before any proceeds (the barrier),
        // so both the caller and the spawned worker run `f`.
        let run = |should_panic: &(dyn Fn(usize) -> bool + Sync)| {
            let barrier = Barrier::new(test_workers());
            catch_unwind(AssertUnwindSafe(|| {
                with_max_workers(Some(2), || {
                    par_map_collect_with(
                        count,
                        || false,
                        |met, i| {
                            if !*met {
                                barrier.wait();
                                *met = true;
                            }
                            assert!(!should_panic(i), "boom at {i}");
                            i
                        },
                    )
                })
            }))
        };
        let assert_propagated = |result: std::thread::Result<Vec<usize>>, case: &str| {
            let payload = result.expect_err(case);
            assert!(panic_message(&*payload).contains("boom at"), "{case}");
        };
        for bad in 0..count {
            assert_propagated(run(&|i| i == bad), &format!("panic at index {bad}"));
        }
        let caller = std::thread::current().id();
        assert_propagated(
            run(&|_| std::thread::current().id() == caller),
            "panic on the caller",
        );
        if test_workers() >= 2 {
            assert_propagated(
                run(&|_| std::thread::current().id() != caller),
                "panic on a spawned worker",
            );
        }
    }

    #[test]
    fn worker_cap_is_restored_after_a_panic() {
        with_max_workers(Some(3), || {
            let caught = catch_unwind(|| with_max_workers(Some(1), || panic!("failed request")));
            assert!(caught.is_err());
            assert_eq!(MAX_WORKERS.with(Cell::get), Some(3));
        });
        assert_eq!(MAX_WORKERS.with(Cell::get), None);
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
