//! The persistent worker pool both executors run their ranks on: the
//! calling thread plus parked OS threads that live as long as the pool,
//! so an operation costs one wakeup per parked worker instead of a thread
//! spawn and join.  The threaded engine asks for one worker per rank, the
//! modeled machine for one per contiguous chunk of ranks; a one-worker
//! pool spawns nothing and is the sequential mode.  Jobs never unwind: a
//! panic is caught inside the job and its payload handed back.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Host worker count for the modeled machine: `PIC_HOST_THREADS` when it
/// is a positive integer, otherwise the visible core count, read once per
/// process.  Pinning it keeps benchmark numbers comparable on shared
/// runners, whose visible core count varies.
pub(crate) fn host_width() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        if let Ok(v) = std::env::var("PIC_HOST_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
            eprintln!("PIC_HOST_THREADS={v:?} is not a positive integer; ignoring");
        }
        thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    })
}

/// A dispatched job, its borrows erased to `'static` for transit to the
/// worker (see [`WorkerPool::map`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One parked worker's job hand-off slot: `(pending job, shutdown)`.  A
/// mutex + condvar rather than a channel on purpose: condvar waits park
/// at once, while channel receives spin-yield first, and on a host with
/// fewer cores than workers those yields preempt workers still computing.
struct WorkerSlot {
    job: Mutex<(Option<Job>, bool)>,
    cv: Condvar,
}

/// Worker 0 is the calling thread; completion is a counted condvar that
/// only the *last* parked worker to finish notifies, so the calling
/// thread wakes at most once per operation.
pub(crate) struct WorkerPool {
    /// Job slots of workers `1..`, one parked thread each.
    slots: Vec<Arc<WorkerSlot>>,
    /// Parked workers done with the current operation's job.
    done: Arc<(Mutex<usize>, Condvar)>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool of `workers` workers: the calling thread and
    /// `workers - 1` parked threads named `{name}-{w}`.
    ///
    /// # Panics
    /// Panics if `workers` is 0 or a thread cannot be spawned.
    pub(crate) fn new(workers: usize, name: &str) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let parked = workers - 1;
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        let slots: Vec<Arc<WorkerSlot>> = (0..parked)
            .map(|_| {
                Arc::new(WorkerSlot {
                    job: Mutex::new((None, false)),
                    cv: Condvar::new(),
                })
            })
            .collect();
        let handles = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let (slot, done) = (Arc::clone(slot), Arc::clone(&done));
                let worker = move || loop {
                    let mut guard = slot.job.lock().expect("job mutex never poisoned");
                    let job = loop {
                        if guard.1 {
                            return;
                        }
                        if let Some(job) = guard.0.take() {
                            break job;
                        }
                        guard = slot.cv.wait(guard).expect("job mutex never poisoned");
                    };
                    drop(guard);
                    job();
                    let mut finished = done.0.lock().expect("completion mutex never poisoned");
                    *finished += 1;
                    if *finished == parked {
                        done.1.notify_one();
                    }
                };
                let name = format!("{name}-{}", i + 1);
                thread::Builder::new()
                    .name(name)
                    .spawn(worker)
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            slots,
            done,
            handles,
        }
    }

    /// A pool for [`Self::map_chunks`] over `ranks` ranks on at most
    /// `width` workers: chunks of `⌈ranks / width⌉` ranks, one per
    /// worker, which may take fewer than `width` workers.
    pub(crate) fn chunked(ranks: usize, width: usize) -> Self {
        let chunk = ranks.div_ceil(width.max(1)).max(1);
        Self::new(ranks.div_ceil(chunk).max(1), "rank-chunk")
    }

    /// Apply `f` to every `(rank, state, arg)` triple, worker `w` taking
    /// the `w`-th contiguous chunk of ranks, and return the outputs in
    /// rank order.  Once every chunk has finished, a panic on any rank is
    /// re-raised with its original payload (the lowest chunk's wins).
    ///
    /// # Panics
    /// Panics if `args` does not hold one entry per state, or if the
    /// states do not split into one chunk per worker (build the pool
    /// with [`Self::chunked`] for this rank count).
    pub(crate) fn map_chunks<S, X, T, F>(&self, states: &mut [S], args: Vec<X>, f: &F) -> Vec<T>
    where
        S: Send,
        X: Send,
        T: Send,
        F: Fn(usize, &mut S, X) -> T + Sync,
    {
        assert_eq!(states.len(), args.len(), "one argument per rank");
        if states.is_empty() {
            return Vec::new();
        }
        let chunk = states.len().div_ceil(self.slots.len() + 1);
        let mut args = args.into_iter();
        let items: Vec<(usize, &mut [S], Vec<X>)> = states
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, states)| {
                let xs = args.by_ref().take(states.len()).collect();
                (c * chunk, states, xs)
            })
            .collect();
        self.map(items, &|_, (base, states, xs)| {
            states
                .iter_mut()
                .zip(xs)
                .enumerate()
                .map(|(i, (s, x))| f(base + i, s, x))
                .collect::<Vec<T>>()
        })
        .into_iter()
        .flat_map(|out| out.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
    }

    /// Run `f(w, items[w])` on worker `w` for every worker — `items[0]`
    /// on the calling thread — and block until all have finished.
    /// Results come back in worker order; a job that panicked yields its
    /// panic payload.
    ///
    /// # Panics
    /// Panics unless there is exactly one item per worker.
    pub(crate) fn map<I, R, F>(&self, items: Vec<I>, f: &F) -> Vec<thread::Result<R>>
    where
        I: Send,
        R: Send,
        F: Fn(usize, I) -> R + Sync,
    {
        assert_eq!(items.len(), self.slots.len() + 1, "one item per worker");
        let run = &|w: usize, item: I| catch_unwind(AssertUnwindSafe(|| f(w, item)));
        let mut items = items.into_iter();
        let first = items.next().expect("a pool has at least one worker");
        let mut parked: Vec<Option<thread::Result<R>>> = self.slots.iter().map(|_| None).collect();
        for (w, ((slot, out), item)) in self.slots.iter().zip(&mut parked).zip(items).enumerate() {
            let job: Box<dyn FnOnce() + Send + '_> =
                Box::new(move || *out = Some(run(w + 1, item)));
            // SAFETY: the job borrows `f`, its item and its outcome slot,
            // all of which outlive this call, and this call cannot return
            // before every job has finished: the completion wait below
            // blocks until all parked workers signal, and nothing before
            // it can unwind (`run` catches panics, worker 0's job included,
            // and the locks are never held by code that panics, so they
            // are never poisoned).  The lifetime is erased only for transit.
            let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            slot.job.lock().expect("job mutex never poisoned").0 = Some(job);
            slot.cv.notify_one();
        }
        let own = run(0, first);
        let (lock, cv) = &*self.done;
        let mut finished = lock.lock().expect("completion mutex never poisoned");
        while *finished < self.slots.len() {
            finished = cv.wait(finished).expect("completion mutex never poisoned");
        }
        *finished = 0;
        drop(finished);
        let parked = parked
            .into_iter()
            .map(|o| o.expect("every job writes its outcome"));
        std::iter::once(own).chain(parked).collect()
    }
}

#[cfg(test)]
impl WorkerPool {
    /// A handle that dies once every parked worker thread has exited.
    pub(crate) fn liveness(&self) -> std::sync::Weak<(Mutex<usize>, Condvar)> {
        Arc::downgrade(&self.done)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for slot in &self.slots {
            // never poisoned (see `map`), but `Drop` must not panic
            slot.job.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
            slot.cv.notify_one();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_jobs_yield_their_payloads_and_the_pool_survives() {
        for workers in [1, 3] {
            let pool = WorkerPool::new(workers, "test");
            // worker 0 is the calling thread, the last one a parked worker
            let failing = |w: usize| w == 0 || w == workers - 1;
            let out = pool.map(vec![(); workers], &|w, ()| {
                if failing(w) {
                    panic!("job {w} failed");
                }
                w
            });
            for (w, outcome) in out.iter().enumerate() {
                match outcome {
                    Ok(v) => assert!(!failing(w) && *v == w),
                    Err(payload) => {
                        let msg = payload.downcast_ref::<String>().expect("formatted message");
                        assert_eq!(msg, &format!("job {w} failed"));
                    }
                }
            }
            let again = pool.map(vec![(); workers], &|w, ()| w);
            assert!(again.iter().all(Result::is_ok));
        }
    }

    #[test]
    fn an_empty_rank_set_maps_to_nothing() {
        let pool = WorkerPool::chunked(0, 4);
        let out: Vec<()> = pool.map_chunks(&mut [0u8; 0], Vec::new(), &|_, _, ()| ());
        assert!(out.is_empty());
    }
}
