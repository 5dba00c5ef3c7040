//! Shared worker-pool layer: thread-count resolution, fleet accounting,
//! scoped fan-out, and a process-lifetime [`WorkerPool`].
//!
//! Two execution shapes live here:
//!
//! * **Scoped fleets** ([`scoped_map`]) — the batch shape used by
//!   [`SequenceStore::par_map_streams`](crate::SequenceStore::par_map_streams)
//!   and [`par_map_paths`](crate::par_map_paths): a fixed item set is
//!   chunked over short-lived scoped threads and the call blocks until
//!   every item is done. Borrowed (non-`'static`) closures are fine.
//! * **A long-lived [`WorkerPool`]** — the service shape: a fixed set of
//!   OS threads draining a *bounded* task queue for the lifetime of the
//!   process. Submission is either blocking ([`WorkerPool::execute`]) or
//!   failing-fast ([`WorkerPool::try_execute`], the admission-control
//!   hook: a saturated queue is a typed [`PoolError::Saturated`] instead
//!   of unbounded memory growth). [`WorkerPool::shutdown`] drains the
//!   queue and joins every worker.
//!
//! Both shapes share the same accounting vocabulary: fleets record
//! `store.fleet.*` (runs, workers, per-task latency, queue wait, wall vs
//! summed CPU), the pool records `store.pool.*` (submitted, completed,
//! rejected, queue depth, queue-wait latency).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Resolves a requested worker count: `0` means "one worker per available
/// core" ([`std::thread::available_parallelism`]); anything else is taken
/// literally.
pub fn resolve_threads(n_threads: usize) -> usize {
    if n_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        n_threads
    }
}

/// Per-run accounting for one fleet evaluation (`store.fleet.*`).
///
/// Created once per [`scoped_map`] call; each worker thread takes a
/// [`FleetWorker`] and routes its tasks through it, so the registry sees
/// per-task latency, per-worker task counts, queue wait (fleet start →
/// worker's first task), and the run's wall vs summed-CPU time — the
/// ratio of the latter two is the realized parallel speedup.
struct FleetRun {
    start: transmark_obs::Timer,
    cpu_ns: AtomicU64,
}

impl FleetRun {
    fn begin(workers: usize) -> FleetRun {
        transmark_obs::counter!("store.fleet.runs").inc();
        transmark_obs::gauge!("store.fleet.workers").set(workers as u64);
        FleetRun {
            start: transmark_obs::Timer::start(),
            cpu_ns: AtomicU64::new(0),
        }
    }

    fn worker(&self) -> FleetWorker<'_> {
        FleetWorker {
            run: self,
            tasks: 0,
            cpu_ns: 0,
        }
    }

    fn finish(self) {
        transmark_obs::histogram!("store.fleet.wall_ns").record(self.start.elapsed_ns());
        transmark_obs::histogram!("store.fleet.cpu_ns").record(self.cpu_ns.load(Ordering::Relaxed));
    }
}

/// One worker thread's view of a [`FleetRun`]; folds its totals into the
/// run (and the global registry) on drop, so early error returns still
/// account for the tasks that did run.
struct FleetWorker<'a> {
    run: &'a FleetRun,
    tasks: u64,
    cpu_ns: u64,
}

impl FleetWorker<'_> {
    fn task<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.tasks == 0 {
            transmark_obs::histogram!("store.fleet.queue_wait_ns")
                .record(self.run.start.elapsed_ns());
        }
        // On a profiled run each task is a span on its worker's lane
        // ("task", with bind/execute nesting under it), so the timeline
        // shows where each worker's wall time went.
        let _span = transmark_obs::span::enter("task");
        let t = transmark_obs::Timer::start();
        let out = f();
        self.cpu_ns += t.observe(transmark_obs::histogram!("store.fleet.task_ns"));
        self.tasks += 1;
        out
    }
}

impl Drop for FleetWorker<'_> {
    fn drop(&mut self) {
        transmark_obs::counter!("store.fleet.tasks").add(self.tasks);
        transmark_obs::histogram!("store.fleet.tasks_per_worker").record(self.tasks);
        self.run.cpu_ns.fetch_add(self.cpu_ns, Ordering::Relaxed);
    }
}

/// Maps `f` over `items` on up to `n_threads` scoped OS threads
/// (`0` = auto, see [`resolve_threads`]), preserving item order in the
/// result; the first error wins. Items are chunked contiguously, one
/// chunk per worker; each worker propagates the caller's profiler into
/// its own `worker-N` lane and accounts through `FleetRun` /
/// `FleetWorker` (`store.fleet.*`).
///
/// This is the single fan-out body behind
/// [`SequenceStore::par_map_streams`](crate::SequenceStore::par_map_streams)
/// and [`par_map_paths`](crate::par_map_paths); it also serves ad-hoc
/// fleets like the bench harness's loopback client swarm.
pub fn scoped_map<I, T, E, F>(items: &[I], n_threads: usize, f: F) -> Result<Vec<T>, E>
where
    I: Sync,
    T: Send,
    E: Send,
    F: Fn(&I) -> Result<T, E> + Sync,
{
    let n_threads = resolve_threads(n_threads);
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let chunk = items.len().div_ceil(n_threads).max(1);
    let run = FleetRun::begin(items.len().div_ceil(chunk));
    // Propagate the caller's profiler into the workers: each gets its
    // own "worker-N" lane, so queue-wait vs. compute is visible per
    // worker in the merged timeline.
    let rec = transmark_obs::profile::current();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(wi, part)| {
                let f = &f;
                let run = &run;
                let rec = rec.clone();
                scope.spawn(move || {
                    let _lane = rec.as_ref().map(|r| r.install(format!("worker-{wi}")));
                    let mut w = run.worker();
                    part.iter()
                        .map(|item| w.task(|| f(item)))
                        .collect::<Result<Vec<T>, E>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread does not panic"))
            .collect::<Result<Vec<Vec<T>>, E>>()
    });
    run.finish();
    Ok(results?.into_iter().flatten().collect())
}

/// Why a [`WorkerPool`] submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The bounded queue is full ([`WorkerPool::try_execute`] only) —
    /// the admission-control signal: shed load instead of queueing
    /// without bound.
    Saturated,
    /// [`WorkerPool::shutdown`] has begun; no new work is accepted.
    ShuttingDown,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Saturated => write!(f, "worker pool queue is full"),
            PoolError::ShuttingDown => write!(f, "worker pool is shutting down"),
        }
    }
}

impl std::error::Error for PoolError {}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<(Job, transmark_obs::Timer)>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for work (or shutdown)…
    work_ready: Condvar,
    /// …and blocking submitters wait here for queue space.
    space_ready: Condvar,
    queue_cap: usize,
    /// Label value for the per-pool `store.pool.*{pool=…}` series, so
    /// co-resident pools (e.g. `serve` vs an embedder's own) stay
    /// distinguishable in one registry.
    name: &'static str,
}

/// A fixed set of long-lived worker threads draining a bounded FIFO task
/// queue — the process-lifetime execution resource behind `tmk serve`.
///
/// Unlike the scoped fleets ([`scoped_map`]), jobs must be `'static`:
/// they outlive the submitting call. The queue bound is the pool's
/// admission-control surface — [`WorkerPool::try_execute`] refuses work
/// with [`PoolError::Saturated`] when the backlog reaches capacity,
/// while [`WorkerPool::execute`] blocks the submitter (backpressure)
/// until a slot frees.
///
/// Accounting (`store.pool.*`): `submitted` / `completed` / `rejected`
/// counters, a `queue_depth` gauge, and a `queue_wait_ns` histogram
/// (submission → a worker dequeues the job).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `workers` threads (`0` = one per core, see
    /// [`resolve_threads`]) and a queue bounded at `queue_cap` pending
    /// jobs (minimum 1). The pool reports under the `pool=pool` label;
    /// use [`WorkerPool::named`] to pick the label value.
    pub fn new(workers: usize, queue_cap: usize) -> WorkerPool {
        WorkerPool::named("pool", workers, queue_cap)
    }

    /// Like [`WorkerPool::new`], with an explicit name for the pool's
    /// `store.pool.*{pool=…}` metric series (the unlabeled totals are
    /// still recorded).
    pub fn named(name: &'static str, workers: usize, queue_cap: usize) -> WorkerPool {
        let n = resolve_threads(workers);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            queue_cap: queue_cap.max(1),
            name,
        });
        transmark_obs::gauge!("store.pool.workers").set(n as u64);
        transmark_obs::gauge!("store.pool.workers", pool = name).set(n as u64);
        let workers = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tmk-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs queued but not yet picked up by a worker.
    pub fn queue_len(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool lock is not poisoned")
            .queue
            .len()
    }

    /// Submits `job`, failing fast with [`PoolError::Saturated`] when the
    /// queue is at capacity — the admission-control entry point.
    pub fn try_execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolError> {
        let mut state = self.shared.state.lock().expect("pool lock is not poisoned");
        if state.shutdown {
            return Err(PoolError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.queue_cap {
            transmark_obs::counter!("store.pool.rejected").inc();
            transmark_obs::counter!("store.pool.rejected", pool = self.shared.name).inc();
            return Err(PoolError::Saturated);
        }
        self.enqueue(&mut state, Box::new(job));
        Ok(())
    }

    /// Submits `job`, blocking the caller until queue space is available
    /// (backpressure). Fails only when the pool is shutting down.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolError> {
        let mut state = self.shared.state.lock().expect("pool lock is not poisoned");
        while !state.shutdown && state.queue.len() >= self.shared.queue_cap {
            state = self
                .shared
                .space_ready
                .wait(state)
                .expect("pool lock is not poisoned");
        }
        if state.shutdown {
            return Err(PoolError::ShuttingDown);
        }
        self.enqueue(&mut state, Box::new(job));
        Ok(())
    }

    fn enqueue(&self, state: &mut PoolState, job: Job) {
        state.queue.push_back((job, transmark_obs::Timer::start()));
        transmark_obs::counter!("store.pool.submitted").inc();
        transmark_obs::counter!("store.pool.submitted", pool = self.shared.name).inc();
        transmark_obs::gauge!("store.pool.queue_depth").set(state.queue.len() as u64);
        transmark_obs::gauge!("store.pool.queue_depth", pool = self.shared.name)
            .set(state.queue.len() as u64);
        self.shared.work_ready.notify_one();
    }

    /// Graceful shutdown: refuses new work, drains every queued job, and
    /// joins all worker threads. Idempotent by construction (consumes the
    /// pool); dropping a pool without calling this shuts it down the same
    /// way.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock is not poisoned");
            state.shutdown = true;
            self.shared.work_ready.notify_all();
            self.shared.space_ready.notify_all();
        }
        for h in self.workers.drain(..) {
            h.join().expect("worker thread does not panic");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock is not poisoned");
            loop {
                if let Some((job, queued)) = state.queue.pop_front() {
                    transmark_obs::gauge!("store.pool.queue_depth").set(state.queue.len() as u64);
                    transmark_obs::gauge!("store.pool.queue_depth", pool = shared.name)
                        .set(state.queue.len() as u64);
                    let wait =
                        queued.observe(transmark_obs::histogram!("store.pool.queue_wait_ns"));
                    transmark_obs::histogram!("store.pool.queue_wait_ns", pool = shared.name)
                        .record(wait);
                    shared.space_ready.notify_one();
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .expect("pool lock is not poisoned");
            }
        };
        job();
        transmark_obs::counter!("store.pool.completed").inc();
        transmark_obs::counter!("store.pool.completed", pool = shared.name).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn resolve_threads_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn scoped_map_preserves_order_and_propagates_errors() {
        let items: Vec<usize> = (0..37).collect();
        let out: Vec<usize> = scoped_map(&items, 4, |&i| Ok::<_, ()>(i * 2)).expect("no errors");
        assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());

        let err = scoped_map(&items, 4, |&i| if i == 20 { Err(i) } else { Ok(i) });
        assert_eq!(err, Err(20));

        let empty: Vec<usize> = scoped_map(&[] as &[usize], 4, |&i| Ok::<_, ()>(i)).expect("empty");
        assert!(empty.is_empty());
    }

    #[test]
    fn pool_runs_jobs_and_drains_on_shutdown() {
        let pool = WorkerPool::new(3, 64);
        assert_eq!(pool.workers(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .expect("pool accepts work");
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn saturated_pool_rejects_with_typed_error() {
        let pool = WorkerPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));

        // Park the single worker so the queue backs up deterministically.
        let g = Arc::clone(&gate);
        pool.execute(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .expect("first job is accepted");

        // Wait until the worker has dequeued the parked job — on a
        // single-core box it may not be scheduled until we yield — so
        // the queue's one slot is demonstrably free again.
        while pool.queue_len() > 0 {
            std::thread::yield_now();
        }

        // Fill the single queue slot, then overflow it.
        let fill = pool.try_execute(|| {});
        let overflow = pool.try_execute(|| {});

        // Unpark the worker *before* asserting: a failed assertion would
        // otherwise unwind into the pool's drain-and-join drop while the
        // worker still waits on a gate nobody will open.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();

        assert_eq!(fill, Ok(()), "queue slot admits one job");
        assert_eq!(
            overflow,
            Err(PoolError::Saturated),
            "overflow is a typed rejection"
        );
    }

    #[test]
    fn shutdown_pool_refuses_new_work() {
        let pool = WorkerPool::new(2, 8);
        let shared = Arc::clone(&pool.shared);
        pool.shutdown();
        // A fresh handle to the shared state shows shutdown latched.
        assert!(shared.state.lock().unwrap().shutdown);
    }
}
