//! The engine's persistent compute pool: long-lived worker threads that
//! run one borrowed job at a time together with the calling thread.
//!
//! [`Pool::run`] publishes a `&(dyn Fn() + Sync)` under a
//! `Mutex`/`Condvar` epoch and runs it on the caller too; every worker
//! that wakes while it is published runs it once. When the caller's own
//! invocation returns it retracts the job and waits for the workers that
//! are inside it — never for one that has not woken yet, which would find
//! nothing left to claim. Between jobs the workers are parked on the
//! condvar — no spinning — so an idle pool costs nothing against the
//! server, HTTP and generator threads. What a job *does* (claim tiles off
//! an atomic counter, write disjoint output rows) is the executor's
//! business; [`Pool::run_tiles`] is that claim loop.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = &'static (dyn Fn() + Sync);

#[derive(Default)]
struct State {
    /// Bumped once per published job; a worker runs each epoch once.
    epoch: u64,
    /// `Some` from publication until the caller's own invocation returns.
    job: Option<Job>,
    /// Workers inside the job right now.
    running: usize,
    /// First panic payload a worker caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new epoch (or shutdown).
    work: Condvar,
    /// The caller waits here for `running == 0`.
    done: Condvar,
}

impl Shared {
    /// The state lock is never held while a job runs, so a poisoned lock
    /// can only follow a failed internal `expect`; every update leaves
    /// `State` valid, so the waits that soundness depends on carry on.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Retracts the job and waits until no worker is inside it, on every exit
/// path from [`Pool::run`] including unwinding.
struct Retract<'a>(&'a Shared);

impl Drop for Retract<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.job = None;
        while st.running > 0 {
            st = self.0.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// `workers` parked threads named `microscopiq-gemm-{i}`; joined on drop.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Pool {
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let workers = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("microscopiq-gemm-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn gemm pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Runs `job` on the calling thread and, concurrently, once on every
    /// worker that wakes before the caller's invocation returns; returns
    /// when all of those have finished. A panic inside the job — on the
    /// caller or on a worker — is re-raised here after that wait; the pool
    /// stays usable. `&mut self` is the exclusion: one job at a time.
    pub(crate) fn run(&mut self, job: &(dyn Fn() + Sync)) {
        // SAFETY: only the lifetime is erased. Workers reach the `'static`
        // copy solely by reading `State::job` under the state lock, and
        // count themselves into `State::running` under that same lock
        // acquisition. `Retract` is constructed before the job is
        // published; its `Drop` runs on every way out of this function,
        // clears `State::job` and blocks until `running == 0` under the
        // lock. So after `run` returns or unwinds no worker holds the job
        // or can obtain it: nothing dereferences it past the real borrow.
        let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        let retract = Retract(&self.shared);
        {
            let mut st = self.shared.lock();
            st.epoch += 1;
            st.job = Some(erased);
            st.panic = None;
        }
        self.shared.work.notify_all();
        job();
        drop(retract);
        if let Some(payload) = self.shared.lock().panic.take() {
            resume_unwind(payload);
        }
    }

    /// Calls `tile(t)` exactly once for every `t` in `0..n`, spread over
    /// the workers and the caller: whoever is idle claims the next index
    /// off one shared counter.
    pub(crate) fn run_tiles(&mut self, n: usize, tile: &(dyn Fn(usize) + Sync)) {
        // Relaxed: the counter hands out indices and publishes no data.
        let next = AtomicUsize::new(0);
        self.run(&|| loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= n {
                break;
            }
            tile(t);
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            // Workers catch job panics, so a join error has nothing to add.
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0;
    loop {
        let job = {
            let mut st = shared.lock();
            let job = loop {
                if st.shutdown {
                    return;
                }
                match st.job {
                    Some(job) if st.epoch != seen => break job,
                    _ => st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner),
                }
            };
            seen = st.epoch;
            st.running += 1;
            job
        };
        let result = catch_unwind(AssertUnwindSafe(job));
        let mut st = shared.lock();
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.running -= 1;
        if st.running == 0 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn every_tile_is_claimed_exactly_once() {
        for workers in [1usize, 3] {
            let mut pool = Pool::new(workers);
            for n in [0, 1, workers, 7 * workers + 3] {
                let claims: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.run_tiles(n, &|t| {
                    claims[t].fetch_add(1, Ordering::Relaxed);
                });
                for (t, c) in claims.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::Relaxed),
                        1,
                        "workers={workers} n={n} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn writes_through_borrowed_stack_data_are_visible_after_run() {
        for workers in [1usize, 3] {
            let mut pool = Pool::new(workers);
            for round in 0..1000usize {
                // Plain (non-atomic) rows on this stack frame, each behind
                // the never-contended lock the executor uses for its tiles.
                let rows: Vec<Mutex<usize>> =
                    (0..4 * (workers + 1)).map(|_| Mutex::new(0)).collect();
                pool.run_tiles(rows.len(), &|t| *rows[t].lock().unwrap() = round + t + 1);
                for (t, row) in rows.into_iter().enumerate() {
                    assert_eq!(
                        row.into_inner().unwrap(),
                        round + t + 1,
                        "workers={workers} round={round} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_job_panic_surfaces_on_the_caller_and_the_pool_survives() {
        let mut pool = Pool::new(2);
        let caller = std::thread::current().id();
        for panic_on_caller in [false, true] {
            let fired = AtomicBool::new(false);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.run(&|| {
                    let here = std::thread::current().id() == caller;
                    if here == panic_on_caller {
                        if !fired.swap(true, Ordering::SeqCst) {
                            panic!("job failed (caller: {here})");
                        }
                    } else if here {
                        // Keep the job published until a worker is in it.
                        while !fired.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    }
                });
            }));
            let payload = result.expect_err("the job's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>(),
                Some(&format!("job failed (caller: {panic_on_caller})")),
                "the payload is the job's own"
            );
            // Both workers still take part: the rendezvous needs all three.
            let all = std::sync::Barrier::new(3);
            pool.run(&|| {
                all.wait();
            });
        }
    }

    #[test]
    fn drop_joins_every_worker() {
        let mut pool = Pool::new(3);
        let names: Vec<_> = pool.workers.iter().map(|w| w.thread().name()).collect();
        assert_eq!(
            names,
            [
                Some("microscopiq-gemm-0"),
                Some("microscopiq-gemm-1"),
                Some("microscopiq-gemm-2")
            ]
        );
        // Each participant's `<pid>/task/<tid>`; absent off Linux.
        let tasks = Mutex::new(Vec::new());
        let all = std::sync::Barrier::new(4);
        pool.run(&|| {
            all.wait();
            if let Ok(task) = std::fs::read_link("/proc/thread-self") {
                tasks.lock().unwrap().push(task);
            }
        });
        let me = std::fs::read_link("/proc/thread-self").ok();
        let workers: Vec<_> = tasks
            .into_inner()
            .unwrap()
            .into_iter()
            .filter(|t| Some(t) != me.as_ref())
            .collect();
        assert!(me.is_none() || workers.len() == 3, "{workers:?}");

        // Every worker owns one clone of `shared` for as long as its
        // thread body runs: all gone on return from `drop` means all
        // joined, on any platform.
        let shared = Arc::downgrade(&pool.shared);
        drop(pool);
        assert_eq!(
            shared.strong_count(),
            0,
            "Drop returned before a worker did"
        );
        // And the OS agrees (the other tests in this binary start threads
        // of their own, so look for these tasks, not at `Threads:`). The
        // kernel unlinks a task shortly after the join it wakes.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        for task in workers {
            let path = std::path::Path::new("/proc").join(task);
            while path.exists() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{path:?} outlived Drop"
                );
                std::thread::yield_now();
            }
        }
    }
}
