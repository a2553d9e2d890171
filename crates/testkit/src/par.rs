//! A zero-dependency scoped-thread work chunker.
//!
//! The workspace's hottest loops are embarrassingly parallel over an
//! item list — fault lists in packed fault grading, the 256 key guesses
//! of CPA, the packed rounds of signal-probability estimation. This
//! module fans such a list across OS threads with
//! [`std::thread::scope`], stealing work in small index chunks from a
//! shared atomic cursor, and reassembles results **in item order** so
//! callers observe the exact output a serial loop would have produced.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — results are positionally identical for any
//!    worker count; reductions over the results must therefore be
//!    order-stable by construction.
//! 2. **Zero dependencies** — no rayon; `std::thread::scope` plus one
//!    `AtomicUsize` is the whole scheduler.
//! 3. **Cheap for small inputs** — one item (or one worker) short-cuts
//!    to the plain serial loop with no thread spawn.
//!
//! Worker count resolution: an explicit [`with_workers`] override (used
//! by determinism tests), else the `SECEDA_THREADS` environment
//! variable, else [`std::thread::available_parallelism`].

use crate::chaos;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// 0 = no override; set via [`with_workers`].
    static WORKER_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with the worker count pinned to `workers` on this thread
/// (restored afterwards, also on panic). Worker threads spawned inside
/// do not inherit the override; it applies to top-level [`par_map`] /
/// [`par_map_init`] calls made directly by `f`. The calling thread's
/// chaos scope ([`crate::chaos`]), by contrast, is carried into every
/// worker, so injection decisions do not depend on the worker count.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    assert!(workers >= 1, "worker count must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = WORKER_OVERRIDE.with(|c| Restore(c.replace(workers)));
    f()
}

/// The maximum number of workers a parallel call may use right now:
/// the [`with_workers`] override, else `SECEDA_THREADS`, else the
/// machine's available parallelism.
pub fn max_workers() -> usize {
    let overridden = WORKER_OVERRIDE.with(Cell::get);
    if overridden != 0 {
        return overridden;
    }
    if let Ok(v) = std::env::var("SECEDA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count a parallel call over `len` items will actually use
/// (never more workers than items, never zero).
pub fn workers_for(len: usize) -> usize {
    max_workers().min(len).max(1)
}

/// Parallel map preserving item order: `out[i] = f(i, &items[i])`.
///
/// Results are identical for every worker count. A panic in `f` is
/// propagated to the caller after all workers stop.
pub fn par_map<T, R>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    par_map_init(items, || (), |(), i, item| f(i, item))
}

/// Like [`par_map`] but with per-worker scratch state: `init` runs once
/// on each worker thread and the resulting state is threaded through
/// every call that worker performs. Use this to amortize per-item
/// allocations (simulation value buffers, heaps) across a worker's
/// whole share of the items.
pub fn par_map_init<T, R, S>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    par_map_init_impl(items, init, |state, i, item| {
        // the "par.worker" chaos point sits inside the per-item closure
        // so it fires identically on the serial shortcut and on every
        // worker count (the decision is salted by the item index)
        if chaos::active() {
            chaos::maybe_panic("par.worker", i as u64);
        }
        f(state, i, item)
    })
}

/// The scheduler behind [`par_map_init`], free of injection points.
fn par_map_init_impl<T, R, S>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let len = items.len();
    let workers = workers_for(len);
    if workers <= 1 || len <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }
    // Small chunks keep the tail balanced when item costs vary wildly
    // (fault cones range from one gate to the whole circuit).
    let chunk = (len / (workers * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    let chaos_scope = chaos::inherit();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    chaos_scope.enter(|| {
                        let mut state = init();
                        let mut local = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= len {
                                break;
                            }
                            let end = (start + chunk).min(len);
                            for (i, item) in items[start..end].iter().enumerate() {
                                let i = start + i;
                                local.push((i, f(&mut state, i, item)));
                            }
                        }
                        local
                    })
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => buckets.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut out: Vec<Option<R>> = (0..len).map(|_| None).collect();
    for bucket in buckets {
        for (i, r) in bucket {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("par worker skipped an item"))
        .collect()
}

/// What a worker's panic looked like, recovered per item by
/// [`par_map_catch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The index of the item whose closure panicked.
    pub index: usize,
    /// The panic payload rendered to text (`&str` / `String` payloads;
    /// anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a caught panic payload to text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`par_map`], but a panic in `f` is contained to its own item:
/// `out[i]` is `Err(WorkerPanic)` for the items whose closure panicked
/// while every other item still completes. This is the degradation
/// primitive — [`par_map`] kills the whole computation on the first
/// panic ([`std::panic::resume_unwind`] after all workers stop), which
/// is exactly wrong for "evaluate every threat, report what failed".
///
/// The `"par.worker"` chaos injection point fires *inside* the per-item
/// catch, so chaos-injected worker panics are contained here but fatal
/// in [`par_map`] — both behaviors are pinned by tests.
pub fn par_map_catch<T, R>(
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
{
    par_map_init_impl(
        items,
        || (),
        |(), i, item| {
            catch_unwind(AssertUnwindSafe(|| {
                if chaos::active() {
                    chaos::maybe_panic("par.worker", i as u64);
                }
                f(i, item)
            }))
            .map_err(|payload| WorkerPanic {
                index: i,
                message: panic_message(payload.as_ref()),
            })
        },
    )
}

/// Parallel map with exclusive mutable access to each item:
/// `out[i] = f(i, &mut items[i])`.
///
/// One thread per item (capped only by the item count, not the worker
/// budget), so this is for SMALL item lists that must all make progress
/// concurrently — racing portfolio solvers, long-lived per-shard state —
/// rather than for data-parallel throughput (use [`par_map_init`] for
/// that). When the effective worker count is 1 the items run serially in
/// index order, which gives racing callers a deterministic serial
/// schedule: item 0 completes first.
pub fn par_map_mut<T, R>(items: &mut [T], f: impl Fn(usize, &mut T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    if max_workers() <= 1 || items.len() <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut out: Vec<Option<R>> = Vec::new();
    let f = &f; // share the closure by reference (&F: Send when F: Sync)
    let chaos_scope = &chaos::inherit();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| scope.spawn(move || chaos_scope.enter(|| f(i, item))))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(r) => out.push(Some(r)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("par worker skipped an item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |i, &x| x * 2 + i as u64);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, items[i] * 2 + i as u64);
        }
    }

    #[test]
    fn identical_across_worker_counts() {
        let items: Vec<u64> = (0..337).collect();
        let serial = with_workers(1, || par_map(&items, |_, &x| x.wrapping_mul(0x9E37)));
        for workers in [2, 3, 8] {
            let parallel =
                with_workers(workers, || par_map(&items, |_, &x| x.wrapping_mul(0x9E37)));
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn per_worker_state_is_reused() {
        // each worker counts its own calls; the total must equal the item
        // count even though per-worker shares differ
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let inits = AtomicUsize::new(0);
        let items = vec![(); 200];
        with_workers(4, || {
            par_map_init(
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), _, ()| {
                    calls.fetch_add(1, Ordering::Relaxed);
                },
            )
        });
        assert_eq!(calls.load(Ordering::Relaxed), 200);
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn par_map_mut_mutates_in_place() {
        let mut items: Vec<u64> = (0..6).collect();
        for workers in [1, 3] {
            let out = with_workers(workers, || {
                par_map_mut(&mut items, |i, x| {
                    *x += 10;
                    *x + i as u64
                })
            });
            assert_eq!(out.len(), 6, "workers = {workers}");
            for (i, &r) in out.iter().enumerate() {
                assert_eq!(r, items[i] + i as u64, "workers = {workers}");
            }
        }
        // both passes mutated: 0..6 then +10 twice
        assert_eq!(items, vec![20, 21, 22, 23, 24, 25]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn override_is_restored() {
        with_workers(3, || assert_eq!(max_workers(), 3));
        // after the closure the ambient default is back (no 0-sized pin)
        assert!(max_workers() >= 1);
    }

    #[test]
    fn par_map_still_propagates_panics() {
        // pins the pre-existing contract: the non-catching variants kill
        // the whole computation on the first worker panic
        for workers in [1, 4] {
            let items: Vec<u32> = (0..64).collect();
            let result = std::panic::catch_unwind(|| {
                with_workers(workers, || {
                    par_map(&items, |_, &x| {
                        assert!(x != 13, "poisoned item");
                        x
                    })
                })
            });
            assert!(result.is_err(), "workers = {workers}");
        }
    }

    #[test]
    fn par_map_catch_contains_panics_per_item() {
        let items: Vec<u32> = (0..64).collect();
        for workers in [1, 2, 8] {
            let out = with_workers(workers, || {
                par_map_catch(&items, |_, &x| {
                    assert!(x % 10 != 3, "poisoned item {x}");
                    x * 2
                })
            });
            assert_eq!(out.len(), 64, "workers = {workers}");
            for (i, r) in out.iter().enumerate() {
                if i % 10 == 3 {
                    let p = r.as_ref().expect_err("poisoned item must fail");
                    assert_eq!(p.index, i);
                    assert!(p.message.contains("poisoned item"), "{}", p.message);
                } else {
                    assert_eq!(*r.as_ref().expect("healthy item"), (i as u32) * 2);
                }
            }
        }
    }

    #[test]
    fn chaos_par_worker_panics_contained_and_deterministic() {
        use crate::chaos;
        let items: Vec<u32> = (0..96).collect();
        let expected: Vec<bool> = chaos::with_seed(0xFEED, || {
            (0..96).map(|i| chaos::fires("par.worker", i)).collect()
        });
        assert!(expected.iter().any(|&b| b), "seed must poison something");
        assert!(!expected.iter().all(|&b| b), "seed must not poison all");
        for workers in [1, 2, 8] {
            let out = chaos::with_seed(0xFEED, || {
                with_workers(workers, || par_map_catch(&items, |_, &x| x + 1))
            });
            let got: Vec<bool> = out.iter().map(Result::is_err).collect();
            assert_eq!(got, expected, "workers = {workers}");
        }
        // the same seed makes the plain variant fail outright
        let fatal = std::panic::catch_unwind(|| {
            chaos::with_seed(0xFEED, || par_map(&items, |_, &x| x + 1))
        });
        assert!(fatal.is_err());
    }
}
