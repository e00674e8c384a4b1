//! A minimal fixed-size worker pool for embarrassingly parallel sweeps.
//!
//! The experiment harness expands a sweep into independent, deterministic
//! runs; this module executes them across threads and hands the outputs
//! back **in submission order**, so a parallel sweep is indistinguishable
//! from a serial one. The design is deliberately tiny and dependency-free
//! (scoped threads + channels, no work stealing): workers pull the next
//! task from a shared channel, compute, and send `(index, output)` back to
//! the caller, which reassembles the slots.
//!
//! Two execution styles share the worker discipline:
//!
//! * [`run_ordered`] — the batch path: a fixed task list in, outputs in
//!   submission order out (the sweep engine's byte-identity rests on it).
//! * [`WorkerPool`] — the serving path: a long-lived, prioritized run
//!   queue that accepts jobs over time, hands back a [`JobHandle`] to
//!   wait on per submission, and drains everything already accepted on
//!   shutdown. It keeps no job lifecycle of its own: the scenario-serving
//!   daemon's job record (`service::jobs`) is where a served job's state
//!   and counters live.
//!
//! The simulators themselves stay single-threaded — reproducibility of a
//! single run is untouched; only the layer above them fans out.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// A boxed task the pool can run.
pub type Task<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// The most worker threads [`run_ordered`] or a [`WorkerPool`] starts:
/// `--jobs` above it is refused when the command line is parsed, and a
/// larger count given here is cut to it.
pub const MAX_JOBS: usize = 256;

/// Worker count matching the machine: `std::thread::available_parallelism`,
/// falling back to 1 when the platform cannot say, and at most
/// [`MAX_JOBS`].
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_JOBS)
}

/// Run `tasks` across up to `jobs` (at most [`MAX_JOBS`]) worker threads
/// and return the outputs
/// in task order, regardless of completion order.
///
/// `jobs <= 1` (or a single task) degenerates to a plain in-order loop on
/// the calling thread — the serial and parallel paths share everything
/// else, which is what makes `--jobs N` output byte-identical to
/// `--jobs 1`. A panicking task propagates its panic to the caller once
/// the surviving workers drain.
pub fn run_ordered<'a, T: Send + 'a>(jobs: usize, tasks: Vec<Task<'a, T>>) -> Vec<T> {
    let n = tasks.len();
    if jobs <= 1 || n <= 1 {
        return tasks.into_iter().map(|task| task()).collect();
    }
    let workers = jobs.min(n).min(MAX_JOBS);
    // Pre-load the indexed tasks; the channel then acts as the shared,
    // contention-light work queue (recv never blocks: it yields a task or
    // reports the queue empty).
    let (task_tx, task_rx) = mpsc::channel::<(usize, Task<'a, T>)>();
    for pair in tasks.into_iter().enumerate() {
        task_tx.send(pair).expect("receiver alive");
    }
    drop(task_tx);
    let task_rx = Mutex::new(task_rx);
    type Out<T> = (usize, std::thread::Result<T>);
    let (out_tx, out_rx) = mpsc::channel::<Out<T>>();
    let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let out_tx = out_tx.clone();
            let task_rx = &task_rx;
            scope.spawn(move || loop {
                let task = match task_rx.lock().expect("queue lock").recv() {
                    Ok(task) => task,
                    Err(_) => break, // queue drained
                };
                let (index, run) = task;
                // Catch panics so the caller can re-raise the original
                // payload (of the lowest-indexed failing task) instead of
                // the scope's generic "a scoped thread panicked".
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                // Errors mean the collector hung up; stop quietly.
                if out_tx.send((index, result)).is_err() {
                    break;
                }
            });
        }
        drop(out_tx);
        for (index, value) in out_rx {
            slots[index] = Some(value);
        }
    });
    slots
        .into_iter()
        .map(|slot| match slot.expect("every task delivered an output") {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        })
        .collect()
}

// ---------------------------------------------------------------------
// The long-lived, prioritized pool behind the serving daemon
// ---------------------------------------------------------------------

/// A submitted job, type-erased for the queue.
type Work = Box<dyn FnOnce() + Send>;

/// Handle to one submitted job: block for its output.
pub struct JobHandle<T> {
    output: mpsc::Receiver<T>,
}

impl<T> JobHandle<T> {
    /// Block until the job has run, then take its output: `Some(value)`
    /// when it returned, `None` when it panicked or the output was
    /// already taken.
    pub fn wait(&self) -> Option<T> {
        self.output.recv().ok()
    }
}

struct PoolState {
    /// Keyed `(priority desc, submission order)`, so the first entry is
    /// the next to run: highest priority first, FIFO within a level.
    queue: BTreeMap<(Reverse<i64>, u64), Work>,
    next_seq: u64,
    shutting_down: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
}

/// A long-lived pool of `jobs` workers draining a prioritized queue.
///
/// Unlike [`run_ordered`] the pool outlives any one batch: jobs arrive
/// over time (from concurrent submitters), each returns a [`JobHandle`],
/// and [`WorkerPool::shutdown`] stops intake while **draining** everything
/// already accepted — no accepted job is ever dropped half-done.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `jobs` workers (at least one, at most [`MAX_JOBS`]).
    pub fn new(jobs: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: BTreeMap::new(),
                next_seq: 0,
                shutting_down: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..jobs.clamp(1, MAX_JOBS))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Submit a job at `priority` (higher runs earlier; FIFO within a
    /// level). Returns `None` once [`WorkerPool::shutdown`] has begun —
    /// the caller must surface the rejection, never queue silently.
    pub fn submit<T, F>(&self, priority: i64, job: F) -> Option<JobHandle<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (output_tx, output) = mpsc::channel();
        // A job that panics drops `output_tx` unsent: `wait` reads `None`.
        let work: Work = Box::new(move || {
            let _ = output_tx.send(job());
        });
        {
            let mut state = self.shared.state.lock().expect("pool state");
            if state.shutting_down {
                return None;
            }
            let seq = state.next_seq;
            state.next_seq += 1;
            state.queue.insert((Reverse(priority), seq), work);
        }
        self.shared.available.notify_one();
        Some(JobHandle { output })
    }

    /// Stop accepting submissions, drain every job already accepted, and
    /// join the workers. Idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state");
            state.shutting_down = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let work = {
            let mut state = shared.state.lock().expect("pool state");
            loop {
                if let Some((_, work)) = state.queue.pop_first() {
                    break work;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.available.wait(state).expect("pool state");
            }
        };
        // Everything accepted runs to completion, even during shutdown
        // (the drain guarantee); a job that panics cannot take its worker
        // with it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed<'a, T: Send>(fns: Vec<impl FnOnce() -> T + Send + 'a>) -> Vec<Task<'a, T>> {
        fns.into_iter()
            .map(|f| Box::new(f) as Task<'a, T>)
            .collect()
    }

    #[test]
    fn outputs_follow_submission_order() {
        // Later tasks finish first (earlier ones sleep); order must hold.
        let tasks: Vec<Task<u64>> = (0..16u64)
            .map(|i| {
                Box::new(move || {
                    std::thread::sleep(std::time::Duration::from_millis(16 - i));
                    i * i
                }) as Task<u64>
            })
            .collect();
        let out = run_ordered(4, tasks);
        assert_eq!(out, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let make = || {
            boxed(
                (0..32u64)
                    .map(|i| move || i.wrapping_mul(0x9E3779B9))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run_ordered(1, make()), run_ordered(8, make()));
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(run_ordered::<u32>(8, Vec::new()), Vec::<u32>::new());
        assert_eq!(run_ordered(8, boxed(vec![|| 7])), vec![7]);
    }

    #[test]
    fn more_jobs_than_tasks() {
        assert_eq!(run_ordered(64, boxed(vec![|| 1, || 2])), vec![1, 2]);
    }

    #[test]
    fn borrows_from_the_caller() {
        // Non-'static tasks: scoped threads let tasks borrow locals.
        let base = [10u64, 20, 30];
        let tasks: Vec<Task<u64>> = base
            .iter()
            .map(|v| Box::new(move || v + 1) as Task<u64>)
            .collect();
        assert_eq!(run_ordered(2, tasks), vec![11, 21, 31]);
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn worker_panics_propagate() {
        let tasks: Vec<Task<u64>> = (0..8u64)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("task 3 exploded");
                    }
                    i
                }) as Task<u64>
            })
            .collect();
        run_ordered(4, tasks);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn worker_pool_priorities_order_the_queue() {
        use std::sync::mpsc;
        // One worker, blocked on a gate so the queue builds up; then the
        // queued jobs must drain highest-priority-first, FIFO within ties.
        let pool = WorkerPool::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = pool
            .submit(100, move || {
                gate_rx.recv().expect("gate");
            })
            .expect("accepting");
        let (order_tx, order_rx) = mpsc::channel::<&'static str>();
        let mut handles = Vec::new();
        for (priority, tag) in [(0, "low-a"), (5, "high"), (0, "low-b"), (2, "mid")] {
            let tx = order_tx.clone();
            handles.push(
                pool.submit(priority, move || tx.send(tag).expect("collector"))
                    .expect("accepting"),
            );
        }
        gate_tx.send(()).expect("worker waiting");
        for h in &handles {
            h.wait();
        }
        blocker.wait();
        let order: Vec<_> = order_rx.try_iter().collect();
        assert_eq!(order, vec!["high", "mid", "low-a", "low-b"]);
    }

    #[test]
    fn worker_pool_shutdown_drains_and_rejects() {
        let mut pool = WorkerPool::new(2);
        let handles: Vec<_> = (0..6u64)
            .map(|i| {
                pool.submit(0, move || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    i
                })
                .expect("accepting")
            })
            .collect();
        pool.shutdown();
        // Every job accepted before shutdown completed (the drain).
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(h.wait(), Some(i as u64));
        }
        // New submissions are refused, not silently dropped.
        assert!(pool.submit(0, || 7u64).is_none());
    }

    #[test]
    fn worker_pool_job_panic_is_contained() {
        let pool = WorkerPool::new(1);
        let bad = pool
            .submit(0, || -> u64 { panic!("scenario exploded") })
            .expect("accepting");
        assert_eq!(bad.wait(), None);
        // The worker survives the panic and keeps serving.
        let ok = pool.submit(0, || 9u64).expect("accepting");
        assert_eq!(ok.wait(), Some(9));
    }
}
