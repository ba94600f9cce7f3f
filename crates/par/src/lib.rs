//! Std-only scoped fork-join thread pool for the drivers' local computation.
//!
//! The build image has no crates.io access, so instead of rayon this crate
//! provides the minimal deterministic parallel primitive the drivers need:
//! evaluate a pure per-index function over `0..jobs` on a fixed set of worker
//! threads and hand the results back *in index order*. The [`Backend`] enum is
//! the user-facing knob: a simulator (`dcl_congest::Network`,
//! `dcl_clique::CliqueNetwork`, `dcl_mpc::Mpc`) built by `from_exec` with a
//! [`Backend::Parallel`] config holds a [`Pool`] for its whole life (the
//! engine builds it once). The pool runs local per-node
//! computation between rounds (Lemma 2.6's per-edge conditional
//! expectations, the seed-segment argmin); the rounds themselves always run
//! on the calling thread.
//!
//! # Determinism contract
//!
//! Work is split into *chunks* with boundaries that depend only on the item
//! count and the thread count, never on timing. Which worker executes which
//! chunk is racy, but each chunk writes only its own result slot, so the
//! values returned by [`Pool::map_chunks_with`] are bit-identical across runs
//! and across thread counts with the same chunking.
//!
//! # Panics
//!
//! A panic inside a job is caught on the worker, and after the whole batch
//! has drained, the payload of the *lowest-indexed* panicking job is resumed
//! on the caller — so `should_panic` tests observe the same message under
//! both backends, and the choice of propagated panic is deterministic.
//!
//! # Examples
//!
//! ```
//! use dcl_par::{Backend, Pool};
//!
//! let pool = Pool::new(Backend::Parallel(4).threads());
//! let mut items: Vec<usize> = (0..10).collect();
//! let sums = pool.map_chunks_with(&mut items, |_range, chunk| {
//!     chunk.iter_mut().for_each(|x| *x *= *x);
//!     chunk.iter().sum::<usize>()
//! });
//! assert_eq!(items, (0..10).map(|i| i * i).collect::<Vec<_>>());
//! assert_eq!(sums.iter().sum::<usize>(), 285);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Execution backend for the drivers' local computation.
///
/// `Sequential` is the default everywhere. `Parallel(t)` sizes a [`Pool`] of
/// `t` threads (`0` = one per available core) for the local per-node work
/// between rounds — Lemma 2.6's per-edge conditional expectations and the
/// seed-segment argmin — producing bit-identical metrics and colorings.
/// Rounds run on the calling thread under every backend: a round costs
/// little next to that local work, and pooling it measured slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Single-threaded local computation (the default).
    #[default]
    Sequential,
    /// Multi-threaded local computation with the given thread count;
    /// `Parallel(0)` uses [`std::thread::available_parallelism`].
    Parallel(usize),
}

impl Backend {
    /// Effective worker-thread count of this backend (always ≥ 1).
    pub fn threads(self) -> usize {
        match self {
            Backend::Sequential => 1,
            Backend::Parallel(0) => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Backend::Parallel(t) => t,
        }
    }

    /// Whether this backend actually runs more than one thread.
    pub fn is_parallel(self) -> bool {
        self.threads() > 1
    }
}

/// A job panic caught by the pool, carrying the *original* panic payload and
/// the index of the failing job (the lowest-indexed one when several jobs of
/// a batch panicked). Returned by [`Pool::try_run`]; [`Pool::run`] resumes it
/// via [`JobPanic::resume`], so callers that just propagate see the exact
/// payload the job raised — never a synthesized replacement message.
pub struct JobPanic {
    /// Index of the (lowest-indexed) panicking job.
    pub job: usize,
    /// The payload the job panicked with, untouched.
    pub payload: Box<dyn Any + Send + 'static>,
}

impl JobPanic {
    /// Re-raises the original payload on the calling thread.
    pub fn resume(self) -> ! {
        resume_unwind(self.payload)
    }

    /// The payload as a `&str` when the job panicked with a string message
    /// (`panic!("…")` produces `String`, string-literal panics produce
    /// `&'static str`); `None` for custom [`std::panic::panic_any`] payloads.
    pub fn message(&self) -> Option<&str> {
        self.payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| self.payload.downcast_ref::<&'static str>().copied())
    }
}

impl std::fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPanic")
            .field("job", &self.job)
            .field("message", &self.message())
            .finish()
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool job {} panicked: {}",
            self.job,
            self.message().unwrap_or("<non-string payload>")
        )
    }
}

impl std::error::Error for JobPanic {}

/// An erased `&dyn Fn(usize)` with the lifetime transmuted away so it can sit
/// in the shared state while a batch runs. Soundness: [`Pool::run`] blocks
/// until every worker has finished the batch *before* returning, so the
/// referent outlives every dereference.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine) and
// the pool guarantees it stays alive for the duration of the batch.
unsafe impl Send for TaskPtr {}

struct State {
    /// Batch counter; workers pick up work when it changes.
    epoch: u64,
    /// Jobs in the current batch.
    jobs: usize,
    /// Next unclaimed job index.
    next_job: usize,
    /// Workers that have not yet drained the current batch.
    workers_running: usize,
    /// The erased job closure of the current batch.
    task: Option<TaskPtr>,
    /// Panics caught during the current batch, tagged by job index.
    panics: Vec<(usize, Box<dyn Any + Send + 'static>)>,
    /// Tells workers to exit.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers that a new batch (or shutdown) is available.
    work_cv: Condvar,
    /// Signals the caller that all workers drained the batch.
    done_cv: Condvar,
}

/// A fixed-size fork-join pool of persistent worker threads.
///
/// The pool holds `threads - 1` background workers; the thread calling
/// [`Pool::run`] or [`Pool::map_chunks_with`] participates as the remaining
/// worker, so `Pool::new(1)` spawns nothing and runs everything inline.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Pool {
    /// Creates a pool with `threads` total workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                jobs: 0,
                next_job: 0,
                workers_running: 0,
                task: None,
                panics: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Pool {
            shared,
            handles,
            threads,
        }
    }

    /// Total worker count (background workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i in 0..jobs`, returning when all jobs have
    /// finished. Panics inside jobs are re-raised on the caller with their
    /// original payload (the lowest-indexed panicking job wins); callers that
    /// want the failure as a value use [`Pool::try_run`].
    pub fn run<F: Fn(usize) + Sync>(&self, jobs: usize, f: &F) {
        if let Err(panic) = self.try_run(jobs, f) {
            panic.resume();
        }
    }

    /// [`Pool::run`], but a job panic comes back as a typed [`JobPanic`]
    /// (original payload + failing job index) instead of unwinding the
    /// caller. On the parallel path the whole batch still drains before the
    /// lowest-indexed failure is reported, so worker state is always clean
    /// for the next batch.
    pub fn try_run<F: Fn(usize) + Sync>(&self, jobs: usize, f: &F) -> Result<(), JobPanic> {
        if jobs == 0 {
            return Ok(());
        }
        if self.threads == 1 || jobs == 1 {
            for i in 0..jobs {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    return Err(JobPanic { job: i, payload });
                }
            }
            return Ok(());
        }
        let task: &(dyn Fn(usize) + Sync) = f;
        // SAFETY: see `TaskPtr` — we block below until the batch fully
        // drains, so the erased borrow never outlives `f`.
        let task = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert_eq!(st.workers_running, 0, "pool batches never nest");
            st.epoch += 1;
            st.jobs = jobs;
            st.next_job = 0;
            st.workers_running = self.handles.len();
            st.task = Some(task);
            st.panics.clear();
            self.shared.work_cv.notify_all();
        }
        // The caller participates in the batch.
        drain_jobs(&self.shared, task);
        let mut st = self.shared.state.lock().unwrap();
        while st.workers_running > 0 {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        st.task = None;
        let mut panics = std::mem::take(&mut st.panics);
        drop(st);
        if !panics.is_empty() {
            panics.sort_by_key(|(i, _)| *i);
            let (job, payload) = panics.swap_remove(0);
            return Err(JobPanic { job, payload });
        }
        Ok(())
    }

    /// Splits `items` into contiguous chunks (boundaries depend only on
    /// `items.len()` and the thread count), evaluates `f` on every chunk
    /// across the pool, and returns the per-chunk results **in chunk
    /// order**. Each chunk job receives its index range plus **exclusive**
    /// mutable access to the corresponding sub-slice (per-item scratch such
    /// as the derand step's per-edge DP caches lives there, with no
    /// worker-count dependence in the results).
    pub fn map_chunks_with<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(Range<usize>, &mut [T]) -> R + Sync,
    {
        let ranges = chunk_ranges(items.len(), self.threads);
        // Pre-split into disjoint sub-slices so jobs can run concurrently.
        let mut parts: Vec<Mutex<Option<&mut [T]>>> = Vec::with_capacity(ranges.len());
        let mut rest = items;
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.len());
            parts.push(Mutex::new(Some(head)));
            rest = tail;
        }
        let slots: Vec<Mutex<Option<R>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
        self.run(ranges.len(), &|j| {
            let chunk = parts[j]
                .lock()
                .unwrap()
                .take()
                .expect("each chunk job runs exactly once");
            let result = f(ranges[j].clone(), chunk);
            *slots[j].lock().unwrap() = Some(result);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("run() returns only after every job completed")
            })
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Deterministic chunking: at most `4 · threads` chunks (for load balancing
/// under skewed per-item cost), never smaller than 64 items per chunk (so
/// tiny rounds do not drown in coordination), always covering `0..items`.
fn chunk_ranges(items: usize, threads: usize) -> Vec<Range<usize>> {
    if items == 0 {
        return Vec::new();
    }
    let max_chunks = (threads * 4).max(1);
    let min_chunk = 64usize;
    let chunks = (items.div_ceil(min_chunk)).clamp(1, max_chunks);
    let base = items / chunks;
    let extra = items % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, items);
    ranges
}

fn drain_jobs(shared: &Shared, task: TaskPtr) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            if st.next_job >= st.jobs {
                None
            } else {
                let i = st.next_job;
                st.next_job += 1;
                Some(i)
            }
        };
        let Some(i) = job else { break };
        // SAFETY: `task` points to the batch closure, alive until run()
        // returns (which happens only after every worker finished).
        let f = unsafe { &*task.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
            shared.state.lock().unwrap().panics.push((i, payload));
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let task = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.task.expect("task set for the active epoch");
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        drain_jobs(shared, task);
        let mut st = shared.state.lock().unwrap();
        st.workers_running -= 1;
        if st.workers_running == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// [`Pool::map_chunks_with`] over `items` unit slots: `f` sees only
    /// each chunk's index range.
    fn map_ranges<R: Send>(
        pool: &Pool,
        items: usize,
        f: impl Fn(Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        pool.map_chunks_with(&mut vec![(); items], |range, _| f(range))
    }

    #[test]
    fn backend_thread_counts() {
        assert_eq!(Backend::Sequential.threads(), 1);
        assert_eq!(Backend::Parallel(3).threads(), 3);
        assert!(Backend::Parallel(0).threads() >= 1);
        assert!(!Backend::Sequential.is_parallel());
        assert!(Backend::Parallel(2).is_parallel());
        assert!(!Backend::Parallel(1).is_parallel());
        assert_eq!(Backend::default(), Backend::Sequential);
    }

    #[test]
    fn run_executes_every_job_exactly_once() {
        let pool = Pool::new(4);
        let counters: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, &|i| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn map_chunks_with_results_are_in_order_and_cover_all_items() {
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            for items in [0usize, 1, 63, 64, 65, 1000] {
                let chunks = map_ranges(&pool, items, |r| r.collect::<Vec<_>>());
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                assert_eq!(
                    flat,
                    (0..items).collect::<Vec<_>>(),
                    "threads {threads} items {items}"
                );
            }
        }
    }

    #[test]
    fn map_chunks_with_splits_at_the_same_boundaries() {
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            for items in [0usize, 1, 63, 64, 65, 777] {
                let mut scratch: Vec<usize> = vec![usize::MAX; items];
                let starts = pool.map_chunks_with(&mut scratch, |range, chunk| {
                    assert_eq!(range.len(), chunk.len(), "chunk/sub-slice mismatch");
                    for (off, c) in chunk.iter_mut().enumerate() {
                        *c = range.start + off;
                    }
                    range.start
                });
                // Every item was visited by exactly the chunk owning it.
                assert!(
                    scratch.iter().enumerate().all(|(i, &v)| v == i),
                    "threads {threads} items {items}"
                );
                // The deterministic `chunk_ranges` boundaries.
                let expected: Vec<usize> = chunk_ranges(items, threads)
                    .into_iter()
                    .map(|r| r.start)
                    .collect();
                assert_eq!(starts, expected);
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = Pool::new(3);
        for round in 0..50 {
            let sums = map_ranges(&pool, 500, |r| r.map(|i| i + round).sum::<usize>());
            let total: usize = sums.into_iter().sum();
            assert_eq!(total, (0..500).map(|i| i + round).sum::<usize>());
        }
    }

    #[test]
    fn deterministic_across_thread_counts_with_same_chunking() {
        // Same thread count => same chunk boundaries => identical outputs.
        let triple = |r: Range<usize>| r.map(|i| i * 3).collect::<Vec<_>>();
        let a = map_ranges(&Pool::new(4), 777, triple);
        let b = map_ranges(&Pool::new(4), 777, triple);
        assert_eq!(a, b);
        // Across thread counts, the *flattened* result is still identical.
        let c: Vec<usize> = map_ranges(&Pool::new(2), 777, triple)
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(a.into_iter().flatten().collect::<Vec<_>>(), c);
    }

    #[test]
    fn panic_propagates_with_lowest_job_index() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(100, &|i| {
                if i == 17 || i == 93 {
                    panic!("job {i} failed");
                }
            });
        }));
        let payload = result.expect_err("should panic");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "job 17 failed");
        // The pool survives a panicking batch.
        let ok = map_ranges(&pool, 10, |r| r.len());
        assert_eq!(ok.iter().sum::<usize>(), 10);
    }

    #[test]
    fn try_run_returns_the_original_payload_and_job_index() {
        // Non-string payloads must survive untouched on both execution
        // paths: the pooled batch and the single-thread inline loop.
        #[derive(Debug, PartialEq)]
        struct Custom(u64);
        for threads in [1usize, 4] {
            let pool = Pool::new(threads);
            let err = pool
                .try_run(50, &|i| {
                    if i >= 23 {
                        std::panic::panic_any(Custom(i as u64));
                    }
                })
                .expect_err("jobs 23.. panic");
            assert_eq!(err.job, 23, "threads {threads}");
            assert_eq!(err.payload.downcast_ref::<Custom>(), Some(&Custom(23)));
            assert!(err.message().is_none());
            pool.try_run(10, &|_| {})
                .expect("clean batch after failure");
        }
    }

    #[test]
    fn job_panic_exposes_string_messages() {
        let pool = Pool::new(2);
        let err = pool
            .try_run(8, &|i| assert!(i != 5, "job {i} rejected"))
            .expect_err("job 5 panics");
        assert_eq!(err.job, 5);
        assert_eq!(err.message(), Some("job 5 rejected"));
        assert!(format!("{err:?}").contains("job 5 rejected"));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let out = map_ranges(&pool, 200, |r| r.sum::<usize>());
        assert_eq!(out.iter().sum::<usize>(), (0..200).sum::<usize>());
    }

    #[test]
    fn chunk_ranges_respect_minimum_size() {
        // 100 items on 8 threads: 100/64 rounds up to 2 chunks, not 32.
        let ranges = chunk_ranges(100, 8);
        assert_eq!(ranges.len(), 2);
        // Large inputs cap at 4x threads.
        let ranges = chunk_ranges(1_000_000, 4);
        assert_eq!(ranges.len(), 16);
    }
}
