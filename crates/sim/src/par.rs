//! Deterministic intra-job data parallelism: a hand-rolled scoped-thread
//! pool over fixed-size batches.
//!
//! The experiment engine has always parallelized *across* jobs; this
//! module is what lets one 10⁶-robot job use more than one core without
//! giving up the workspace's byte-identical-output contract. The design
//! rests on one rule: **work is split into fixed-size batches in input
//! order, every batch is a pure function of its input slice, and the
//! per-batch outputs are concatenated in batch order** — never in
//! completion order. Thread scheduling then cannot influence any result
//! bit: `ParPool::new(1)`, `ParPool::new(4)` and `ParPool::new(64)`
//! produce identical output for identical input.
//!
//! [`ParPool`] deliberately owns no threads: it is a `Copy` configuration
//! value. Each [`ParPool::map_batches`] call that fans out runs the batch
//! loop on the calling thread and on `threads − 1` helpers spawned with
//! [`std::thread::scope`], so borrowed inputs (the world's coordinate
//! arrays, a query slice) cross into workers without `Arc` or cloning, and
//! the caller works instead of waiting. Callers amortize the spawn cost by
//! batching at coarse granularity — e.g. one batch of sensing queries per
//! wave *slot*, not per snapshot.
//!
//! No crates.io dependency is involved (mirroring the `vendor/` policy):
//! the pool is ~100 lines of `std`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Queries per batch on the batched-sensing path ([`crate::WorldView::
/// look_batch_into`]). Coarse enough that a batch outweighs the scoped
/// spawn cost, fine enough that 4–8 workers load-balance a slot.
pub const LOOK_BATCH: usize = 512;

/// Minimum query count before batched sensing fans out to threads;
/// below this the sequential path is faster than spawning workers.
pub const PAR_LOOK_MIN: usize = 2 * LOOK_BATCH;

/// Minimum robot count before a job validates its recording on its pool
/// ([`crate::validate_with_pool`]); smaller runs validate on the calling
/// thread, where a scoped spawn would cost more than it saves.
pub const PAR_VALIDATE_MIN: usize = 1 << 14;

/// Points per batch when parallelizing O(n) geometry passes (grid-index
/// key computation, radius scans) over 10⁵–10⁶-element arrays.
pub const POINT_BATCH: usize = 1 << 16;

/// Frontier robots per bucketing batch when the wave drivers group fresh
/// robots by square (cell-of-position is a couple of flops per robot, so
/// batches are large). Shared by `AGrid` and `AWave`.
pub const FRONTIER_BATCH: usize = 1 << 13;

/// A deterministic scoped-thread worker pool of a fixed width.
///
/// See the [module docs](self) for the determinism contract. The pool is
/// plumbed through [`crate::Sim`] (`Sim::with_pool`), the sensing layer
/// ([`crate::WorldView::look_batch_into`]) and the experiment engine's
/// `--sim-threads` axis.
///
/// # Example
///
/// ```
/// use freezetag_sim::ParPool;
///
/// let items: Vec<u64> = (0..10_000).collect();
/// let seq = ParPool::sequential().map_concat(&items, 256, |c| {
///     c.iter().map(|x| x * x).collect::<Vec<_>>()
/// });
/// let par = ParPool::new(4).map_concat(&items, 256, |c| {
///     c.iter().map(|x| x * x).collect::<Vec<_>>()
/// });
/// assert_eq!(seq, par); // batch order, not completion order
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParPool {
    threads: usize,
}

impl Default for ParPool {
    fn default() -> Self {
        ParPool::sequential()
    }
}

impl ParPool {
    /// A pool of exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 — user-facing layers (the `dftp` CLI, plan
    /// validation) reject 0 with a clean error before this is reached.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "ParPool needs at least one thread");
        ParPool { threads }
    }

    /// The single-threaded pool: every `map_batches` call runs inline, in
    /// batch order, on the calling thread.
    pub fn sequential() -> Self {
        ParPool { threads: 1 }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool runs everything inline on the calling thread.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Splits `items` into consecutive batches of `batch` elements (the
    /// last may be shorter), applies `f(batch_index, batch_slice)` to
    /// every batch, and returns the outputs **in batch order**.
    ///
    /// `f` must be a pure function of its arguments (plus shared read-only
    /// captures): batches run concurrently on the calling thread and up to
    /// [`ParPool::threads`]` − 1` scoped helpers, so any hidden mutable
    /// state would race, and any dependence on execution order would break
    /// the determinism contract. With one thread — or a single batch —
    /// everything runs inline.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is 0. A panic in `f` is propagated with its own
    /// payload: the one of the lowest-index panicking batch, which is the
    /// panic the inline loop stops at, whichever thread ran the batch.
    pub fn map_batches<T, U, F>(&self, items: &[T], batch: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &[T]) -> U + Sync,
    {
        assert!(batch >= 1, "batch size must be at least 1");
        let n_batches = items.len().div_ceil(batch);
        let chunk_of = |i: usize| &items[i * batch..((i + 1) * batch).min(items.len())];
        if self.threads == 1 || n_batches <= 1 {
            return (0..n_batches).map(|i| f(i, chunk_of(i))).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<std::thread::Result<U>>>> =
            (0..n_batches).map(|_| Mutex::new(None)).collect();
        let work = || loop {
            // Claim batch indices through one shared counter: cheap dynamic
            // load balancing, while the slot table keeps the output in
            // batch order regardless of who finishes when.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_batches {
                break;
            }
            let out = catch_unwind(AssertUnwindSafe(|| f(i, chunk_of(i))));
            *slots[i].lock().expect("batch slot poisoned") = Some(out);
        };
        std::thread::scope(|s| {
            for _ in 1..self.threads.min(n_batches) {
                s.spawn(work);
            }
            work();
        });
        slots
            .into_iter()
            .map(|slot| {
                match slot
                    .into_inner()
                    .expect("batch slot poisoned")
                    .expect("every claimed batch stores its output")
                {
                    Ok(out) => out,
                    Err(payload) => resume_unwind(payload),
                }
            })
            .collect()
    }

    /// [`ParPool::map_batches`] for batch functions that emit a list:
    /// concatenates the per-batch lists in batch order.
    pub fn map_concat<T, V, F>(&self, items: &[T], batch: usize, f: F) -> Vec<V>
    where
        T: Sync,
        V: Send,
        F: Fn(&[T]) -> Vec<V> + Sync,
    {
        let parts = self.map_batches(items, batch, |_, chunk| f(chunk));
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for p in parts {
            out.extend(p);
        }
        out
    }

    /// Deterministic parallel maximum of `f` over `items`, starting from
    /// `init`. `f64::max` is exactly associative and commutative over
    /// non-NaN inputs, so the batched reduction is bit-identical to a
    /// sequential left fold — this is the engine's radius-scan primitive.
    pub fn max_f64<T, F>(&self, items: &[T], batch: usize, init: f64, f: F) -> f64
    where
        T: Sync,
        F: Fn(&T) -> f64 + Sync,
    {
        self.map_batches(items, batch, |_, chunk| {
            chunk.iter().map(&f).fold(init, f64::max)
        })
        .into_iter()
        .fold(init, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_follow_batch_order_not_completion_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 4, 7] {
            let got = ParPool::new(threads).map_batches(&items, 64, |i, chunk| {
                // Make earlier batches slower so completion order inverts.
                if threads > 1 && i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                (i, chunk.to_vec())
            });
            assert_eq!(got.len(), 16, "threads={threads}");
            for (i, (bi, chunk)) in got.iter().enumerate() {
                assert_eq!(*bi, i);
                assert_eq!(chunk[0], i * 64);
            }
        }
    }

    #[test]
    fn map_concat_is_thread_count_invariant() {
        let items: Vec<i64> = (0..5000).collect();
        let run = |threads| {
            ParPool::new(threads).map_concat(&items, 128, |c| {
                c.iter().map(|x| x * 3 - 1).collect::<Vec<_>>()
            })
        };
        let seq = run(1);
        assert_eq!(seq.len(), items.len());
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_batch_inputs() {
        let pool = ParPool::new(4);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.map_batches(&empty, 16, |_, c| c.len()).is_empty());
        let small = [1u8, 2, 3];
        assert_eq!(pool.map_batches(&small, 16, |_, c| c.len()), vec![3]);
    }

    #[test]
    fn max_f64_matches_sequential_fold() {
        let values: Vec<f64> = (0..10_001)
            .map(|i| ((i * 37) % 9973) as f64 * 0.5)
            .collect();
        let seq = values.iter().copied().fold(0.0, f64::max);
        for threads in [1, 2, 4] {
            let got = ParPool::new(threads).max_f64(&values, 1024, 0.0, |&v| v);
            assert_eq!(got.to_bits(), seq.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn accessors_and_default() {
        assert_eq!(ParPool::default(), ParPool::sequential());
        assert!(ParPool::sequential().is_sequential());
        let p = ParPool::new(6);
        assert_eq!(p.threads(), 6);
        assert!(!p.is_sequential());
    }

    #[test]
    fn a_panic_carries_the_lowest_panicking_batch_payload_at_any_width() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                ParPool::new(threads).map_batches(&items, 4, |i, _| {
                    if i % 5 == 3 {
                        panic!("batch {i} failed");
                    }
                    i
                })
            });
            let payload = caught.expect_err("a batch panicked");
            let msg = payload.downcast_ref::<String>().expect("formatted message");
            assert_eq!(msg, "batch 3 failed", "threads={threads}");
        }
    }

    #[test]
    fn the_calling_thread_runs_batches_too() {
        let caller = std::thread::current().id();
        let items: Vec<u8> = vec![0; 64];
        let ran_on = ParPool::new(2).map_batches(&items, 1, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        });
        assert!(ran_on.contains(&caller), "the caller only waited");
        let distinct: std::collections::HashSet<_> = ran_on.into_iter().collect();
        assert!(distinct.len() <= 2, "more workers than the pool width");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        ParPool::new(0);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        ParPool::new(2).map_batches(&[1, 2, 3], 0, |_, c: &[i32]| c.len());
    }
}
