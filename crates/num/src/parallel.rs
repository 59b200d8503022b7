//! A minimal scoped-thread parallel map with self-scheduling workers.
//!
//! Monte-Carlo experiments run hundreds of independent transient
//! simulations; this fans them out across CPU cores with plain
//! `std::thread::scope` — results are deterministic because every sample
//! derives its RNG from its own index, not from scheduling order.
//!
//! Work is distributed through a shared atomic index rather than static
//! contiguous chunks: per-item cost varies wildly in Monte-Carlo sweeps
//! (a stuck die bails after a cheap transient, an oscillating one runs
//! to the crossing count), so pre-assigned chunks strand workers idle
//! behind whichever chunk drew the expensive dies. With self-scheduling
//! every worker pulls the next unclaimed index the moment it finishes
//! its current one.
//!
//! Maps nest without multiplying threads: a map called from inside a
//! worker runs inline on that worker, so [`set_thread_limit`] bounds the
//! total number of threads a nested fan-out uses, not the threads per
//! level.

use std::cell::Cell;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker cap; 0 means "auto" (available parallelism).
static THREAD_LIMIT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the workers of [`run_self_scheduled`]: a map started from
    /// one runs inline instead of spawning a second level of workers.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Caps the number of worker threads [`parallel_map`] may use
/// process-wide; `None` restores the default (available parallelism).
///
/// Backs the experiments binary's `--threads` flag. Results are
/// index-deterministic regardless of the limit, so this only affects
/// wall time (and lets tests compare serial vs parallel runs).
pub fn set_thread_limit(limit: Option<NonZeroUsize>) {
    THREAD_LIMIT.store(limit.map_or(0, NonZeroUsize::get), Ordering::Relaxed);
}

/// The effective worker-thread cap for an `n`-item map.
pub fn effective_threads(n: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    match THREAD_LIMIT.load(Ordering::Relaxed) {
        0 => auto,
        cap => cap.min(auto),
    }
    .min(n.max(1))
}

/// A worker panic captured by [`try_parallel_map`]: which index panicked
/// and the rendered panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index whose closure panicked.
    pub index: usize,
    /// The panic payload as text (`&str` / `String` payloads verbatim;
    /// other payload types are reported as opaque).
    pub payload: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker panicked at index {}: {}",
            self.index, self.payload
        )
    }
}

impl std::error::Error for WorkerPanic {}

fn payload_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Applies `f` to every index in `0..n` in parallel, capturing panics
/// per index instead of unwinding across the thread scope.
///
/// Returns one `Result` per index, in index order: `Ok(f(i))` for
/// indices that completed, `Err(WorkerPanic)` for indices whose closure
/// panicked. A panic on one index never prevents the remaining indices
/// from running — the Monte-Carlo fan-out and the campaign runner rely
/// on this to record a failed sample and continue.
///
/// `f` is wrapped in [`AssertUnwindSafe`]: callers must not rely on
/// shared state mutated by a panicking invocation. Called from inside
/// another map's worker, the map runs inline on that worker.
pub fn try_parallel_map<T, F>(n: usize, f: F) -> Vec<Result<T, WorkerPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let guarded = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| WorkerPanic {
            index: i,
            payload: payload_text(payload),
        })
    };
    let threads = effective_threads(n);
    if threads <= 1 || n <= 1 || IN_WORKER.with(Cell::get) {
        return (0..n).map(guarded).collect();
    }
    run_self_scheduled(n, threads, &guarded)
}

/// Fans `0..n` out over `threads` workers that pull indices from a
/// shared atomic counter (self-scheduling). Each worker keeps its own
/// `(index, result)` list; the lists are scattered back into index
/// order after all workers join, so the output is independent of which
/// worker ran which index.
fn run_self_scheduled<T, F>(n: usize, threads: usize, guarded: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        mine.push((i, guarded(i)));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("worker closures never unwind") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Applies `f` to every index in `0..n` in parallel and returns the
/// results in index order.
///
/// Uses up to `std::thread::available_parallelism()` worker threads
/// (see [`set_thread_limit`] to cap this).
/// Results are identical to a serial `(0..n).map(f).collect()`.
///
/// # Panics
///
/// Panics if `f` panics on any index, naming the lowest panicking index
/// and its payload. Unlike a raw `std::thread::scope` unwind, every
/// other index still runs to completion first ([`try_parallel_map`]
/// exposes the per-index results when the caller wants to continue
/// instead of panicking).
///
/// # Examples
///
/// ```
/// use rotsv_num::parallel::parallel_map;
///
/// let squares = parallel_map(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_parallel_map(n, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("parallel_map {p}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map() {
        let par = parallel_map(100, |i| i as f64 * 1.5);
        let ser: Vec<f64> = (0..100).map(|i| i as f64 * 1.5).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn thread_limit_caps_workers_without_changing_results() {
        set_thread_limit(NonZeroUsize::new(1));
        assert_eq!(effective_threads(64), 1);
        let capped = parallel_map(50, |i| i * 3);
        set_thread_limit(None);
        assert!(effective_threads(64) >= 1);
        let uncapped = parallel_map(50, |i| i * 3);
        assert_eq!(capped, uncapped);
    }

    #[test]
    fn try_map_captures_panic_index_and_runs_the_rest() {
        let out = try_parallel_map(40, |i| {
            if i == 17 {
                panic!("boom at {i}");
            }
            i * 2
        });
        assert_eq!(out.len(), 40);
        for (i, r) in out.iter().enumerate() {
            if i == 17 {
                let p = r.as_ref().expect_err("index 17 panicked");
                assert_eq!(p.index, 17);
                assert!(p.payload.contains("boom at 17"), "{}", p.payload);
            } else {
                assert_eq!(*r.as_ref().expect("other indices complete"), i * 2);
            }
        }
    }

    #[test]
    fn map_panic_names_the_index() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(8, |i| {
                if i == 3 {
                    panic!("bad sample");
                }
                i
            })
        })
        .expect_err("propagates");
        let msg = caught
            .downcast_ref::<String>()
            .expect("string payload")
            .clone();
        assert!(msg.contains("index 3"), "{msg}");
        assert!(msg.contains("bad sample"), "{msg}");
    }

    /// One item sleeps 30× longer than the rest. With the old static
    /// chunking the worker that owned the slow item's chunk was also
    /// stuck with its whole contiguous chunk (n/threads items); with
    /// self-scheduling the other workers drain the queue while the slow
    /// item runs, so the slow item's worker ends up with only a handful
    /// of items. Driven through `run_self_scheduled` directly so the
    /// scheduler is exercised even on single-core machines (where
    /// `effective_threads` would fall back to the serial path).
    #[test]
    fn self_scheduling_balances_skewed_work() {
        use std::sync::Mutex;
        use std::thread::ThreadId;
        use std::time::Duration;

        let n = 32;
        let threads = 4;
        let who: Mutex<Vec<Option<ThreadId>>> = Mutex::new(vec![None; n]);
        let guarded = |i: usize| {
            std::thread::sleep(Duration::from_millis(if i == 0 { 60 } else { 2 }));
            who.lock().unwrap()[i] = Some(std::thread::current().id());
            i * 2
        };
        let out = run_self_scheduled(n, threads, &guarded);
        assert_eq!(out, (0..n).map(|i| i * 2).collect::<Vec<_>>());

        let who = who.lock().unwrap();
        let slow = who[0].expect("index 0 ran");
        let slow_count = who.iter().filter(|t| **t == Some(slow)).count();
        // Static chunking would pin exactly n/threads = 8 items on the
        // slow worker; self-scheduling leaves it with far fewer because
        // the 60 ms sleep covers the other workers draining the queue.
        assert!(
            slow_count < n / threads,
            "slow worker ran {slow_count} of {n} items; the queue was not stolen from it"
        );
    }

    /// A map inside a map's worker runs inline on that worker, so the
    /// nested fan-out never has more closures in flight than the outer
    /// worker count. Driven through `run_self_scheduled` with two
    /// workers so the test does not depend on the process-wide cap
    /// other tests change.
    #[test]
    fn nested_map_never_exceeds_the_outer_workers() {
        let threads = 2;
        let (active, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let inner = |j: usize| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            active.fetch_sub(1, Ordering::SeqCst);
            j
        };
        let outer = |i: usize| {
            let caller = std::thread::current().id();
            let ran_on: Vec<_> = parallel_map(4, |j| {
                inner(j);
                std::thread::current().id()
            });
            assert!(
                ran_on.iter().all(|&t| t == caller),
                "inner map left its worker"
            );
            i
        };
        let out = run_self_scheduled(8, threads, &outer);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(
            peak.load(Ordering::SeqCst) <= threads,
            "{} closures ran at once under {threads} workers",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn order_is_preserved_under_load() {
        let out = parallel_map(1000, |i| {
            // Unequal work per item to stress scheduling.
            let mut acc = 0u64;
            for k in 0..(i % 37) * 100 {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc)
        });
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }
}
