//! A persistent worker pool for the SOI execution layer.
//!
//! The paper's node-level parallelism (its OpenMP tier) maps here to a
//! std-only pool: `T − 1` worker threads spawned once and parked on a
//! `Condvar`, plus the calling thread, which participates as worker 0.
//! Each [`ThreadPool::run`] publishes one parallel-for job, wakes the
//! workers, executes the caller's share inline, and blocks until every
//! worker has retired its share — so a job never outlives the borrows its
//! closure captures.
//!
//! **Determinism contract.** Task `i` of a `run(tasks, f)` call is
//! executed by worker `i % threads`, and the partition helpers
//! ([`part_range`]) are pure functions of `(units, parts, part)`. Nothing
//! is work-stolen or rebalanced at run time, so for the data-parallel
//! kernels built on top (each output element computed by exactly one pure
//! task) the results are **bitwise identical** for every worker count,
//! including fully serial execution. This is the invariant the
//! `batch_equivalence` and `parallel_determinism` suites pin.
//!
//! A pool of `threads = 1` spawns nothing and runs every job inline; it
//! costs one enum discriminant, so serial call sites can use the same
//! code path as threaded ones.

use soi_trace::Trace;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One published parallel-for: the erased closure plus its task count.
///
/// The `'static` lifetime is a lie told under control: `run` erases the
/// real lifetime and then blocks until every worker has finished with the
/// reference, so it never dangles.
#[derive(Clone, Copy)]
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    tasks: usize,
}

struct State {
    job: Option<Job>,
    /// Bumped once per published job; workers run each epoch exactly once.
    epoch: u64,
    /// Spawned workers that have not yet retired the current epoch.
    outstanding: usize,
    /// First panic payload captured from a worker this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    work_done: Condvar,
}

/// A persistent pool of `threads` workers (the caller counts as one).
pub struct ThreadPool {
    shared: Option<Arc<Shared>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    trace: Trace,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Build a pool of `threads` total workers. `threads − 1` OS threads
    /// are spawned immediately and parked; `new(1)` spawns nothing.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        if threads == 1 {
            return Self {
                shared: None,
                handles: Vec::new(),
                threads: 1,
                trace: Trace::disabled(),
            };
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                outstanding: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("soi-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w, threads))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared: Some(shared),
            handles,
            threads,
            trace: Trace::disabled(),
        }
    }

    /// A serial pool (no spawned threads); every `run` executes inline.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Total worker count, caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attach a trace handle: every task of every subsequent
    /// [`run`](Self::run) is recorded as a per-task timing event tagged
    /// with its (deterministic) worker id `i % threads` — the raw material
    /// for load-imbalance analysis. Pass [`Trace::disabled`] to detach.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The currently attached trace handle.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Execute `f(0), f(1), …, f(tasks − 1)` across the pool and block
    /// until all calls return. Task `i` runs on worker `i % threads`
    /// (static assignment — see the module docs for the determinism
    /// contract). The caller executes worker 0's share inline.
    ///
    /// A panic in any task is re-raised here after every worker has
    /// retired; the pool stays usable afterwards.
    ///
    /// # Panics
    /// Panics on nested use (calling `run` from inside a task of the same
    /// pool), besides propagating task panics.
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.trace.is_enabled() {
            // Timing wrapper only on the traced path: the untraced hot
            // path dispatches the caller's closure untouched.
            let threads = self.threads;
            let trace = &self.trace;
            self.dispatch(tasks, &|t: usize| {
                let t0 = std::time::Instant::now();
                f(t);
                trace.task(t % threads, t, t0.elapsed().as_nanos() as u64);
            });
        } else {
            self.dispatch(tasks, &f);
        }
    }

    fn dispatch(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        let threads = self.threads;
        let shared = match &self.shared {
            None => {
                for t in 0..tasks {
                    f(t);
                }
                return;
            }
            Some(s) => s,
        };
        if tasks <= 1 {
            for t in 0..tasks {
                f(t);
            }
            return;
        }
        {
            let mut st = shared.state.lock().expect("pool state poisoned");
            assert!(st.job.is_none(), "nested ThreadPool::run on the same pool");
            // SAFETY: the reference is only reachable through `st.job`,
            // which this call clears again before returning, and `dispatch`
            // blocks until `outstanding == 0`, i.e. until no worker can
            // still dereference it. `f` therefore strictly outlives every
            // use despite the erased lifetime.
            let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
            };
            st.job = Some(Job { f: erased, tasks });
            st.epoch = st.epoch.wrapping_add(1);
            st.outstanding = threads - 1;
            shared.work_ready.notify_all();
        }
        // Worker 0 (the caller) takes tasks 0, T, 2T, …
        let caller = catch_unwind(AssertUnwindSafe(|| {
            let mut t = 0;
            while t < tasks {
                f(t);
                t += threads;
            }
        }));
        let worker_panic = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            while st.outstanding > 0 {
                st = shared.work_done.wait(st).expect("pool state poisoned");
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(p) = caller {
            resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.state.lock().expect("pool state poisoned").shutdown = true;
            shared.work_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, w: usize, threads: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("epoch bumped without a job");
                }
                st = shared.work_ready.wait(st).expect("pool state poisoned");
            }
        };
        let res = catch_unwind(AssertUnwindSafe(|| {
            let mut t = w;
            while t < job.tasks {
                (job.f)(t);
                t += threads;
            }
        }));
        let mut st = shared.state.lock().expect("pool state poisoned");
        if let Err(p) = res {
            st.panic.get_or_insert(p);
        }
        st.outstanding -= 1;
        if st.outstanding == 0 {
            shared.work_done.notify_all();
        }
    }
}

/// Balanced contiguous partition: the `(start, len)` unit-range of part
/// `part` out of `parts` over `units` total units. The first
/// `units % parts` parts receive one extra unit. Pure arithmetic — the
/// same inputs always give the same split, which is what keeps pooled
/// kernels bitwise identical to serial.
pub fn part_range(units: usize, parts: usize, part: usize) -> (usize, usize) {
    assert!(parts > 0 && part < parts, "part {part} of {parts}");
    let base = units / parts;
    let extra = units % parts;
    let start = part * base + part.min(extra);
    let len = base + usize::from(part < extra);
    (start, len)
}

/// A `Send + Sync` wrapper around a mutable slice, for handing disjoint
/// sub-ranges of one buffer to the tasks of a [`ThreadPool::run`] call.
///
/// Every accessor is `unsafe`: the caller asserts that concurrently
/// outstanding ranges are disjoint and that the original borrow outlives
/// all of them (which `run`'s barrier guarantees when the pointer is not
/// smuggled out of the job closure).
pub struct SlicePtr<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Send for SlicePtr<T> {}
unsafe impl<T: Send> Sync for SlicePtr<T> {}

impl<T> SlicePtr<T> {
    /// Capture `slice` for disjoint concurrent mutation.
    pub fn new(slice: &mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Length of the captured slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the captured slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reborrow `[start, start + len)` mutably.
    ///
    /// # Safety
    /// The range must be in bounds, must not overlap any other range
    /// handed out while this one is alive, and must not outlive the
    /// borrow given to [`SlicePtr::new`].
    pub unsafe fn slice<'a>(&self, start: usize, len: usize) -> &'a mut [T] {
        debug_assert!(start + len <= self.len, "SlicePtr range out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Write one element.
    ///
    /// # Safety
    /// `idx` must be in bounds and no other thread may concurrently read
    /// or write element `idx`.
    pub unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len, "SlicePtr write out of bounds");
        self.ptr.add(idx).write(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ThreadPool::serial();
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(7, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = ThreadPool::new(4);
        let counts: Vec<AtomicUsize> = (0..129).map(|_| AtomicUsize::new(0)).collect();
        pool.run(counts.len(), |t| {
            counts[t].fetch_add(1, Ordering::Relaxed);
        });
        for (t, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {t}");
        }
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(10, |t| {
                total.fetch_add(t + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 55);
    }

    #[test]
    fn tasks_mutate_disjoint_output_ranges() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 1000];
        let parts = 7;
        let ptr = SlicePtr::new(&mut data);
        pool.run(parts, |t| {
            let (start, len) = part_range(1000, parts, t);
            let chunk = unsafe { ptr.slice(start, len) };
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = start + i;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, |t| {
                if t == 5 {
                    panic!("boom in task 5");
                }
            });
        }));
        assert!(res.is_err(), "panic must propagate to the caller");
        // The pool must still work after a propagated panic.
        let hits = AtomicUsize::new(0);
        pool.run(16, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn part_range_partitions_exactly() {
        for units in [0usize, 1, 5, 64, 1000, 1001] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut covered = 0;
                let mut next = 0;
                for p in 0..parts {
                    let (start, len) = part_range(units, parts, p);
                    assert_eq!(start, next, "contiguity units={units} parts={parts}");
                    next = start + len;
                    covered += len;
                }
                assert_eq!(covered, units, "coverage units={units} parts={parts}");
                // Balance: no part more than one unit larger than another.
                let lens: Vec<usize> =
                    (0..parts).map(|p| part_range(units, parts, p).1).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "balance units={units} parts={parts}");
            }
        }
    }

    #[test]
    fn traced_pool_records_one_event_per_task_with_static_worker_ids() {
        use soi_trace::EventKind;
        let mut pool = ThreadPool::new(3);
        pool.set_trace(Trace::recording(0));
        pool.run(10, |_| {});
        let events = pool.trace().drain();
        assert_eq!(events.len(), 10);
        let mut seen = vec![false; 10];
        for ev in &events {
            match ev.kind {
                EventKind::Task { index, .. } => {
                    // Determinism contract: task i runs on worker i % threads.
                    assert_eq!(ev.worker, index % 3, "task {index}");
                    seen[index as usize] = true;
                }
                ref other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(seen.iter().all(|&s| s), "every task must be recorded");
        // Detaching returns the pool to the null-check path.
        pool.set_trace(Trace::disabled());
        pool.run(4, |_| {});
        assert!(pool.trace().is_empty());
    }

    #[test]
    fn zero_and_fewer_tasks_than_workers() {
        let pool = ThreadPool::new(8);
        let hits = AtomicUsize::new(0);
        pool.run(0, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        pool.run(3, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }
}
