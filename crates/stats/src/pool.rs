//! Ordered fan-out over scoped threads, the workspace's one way to split
//! work across threads. [`for_each_with`] claims indices from one atomic
//! cursor, runs jobs inside the caller's [`trace::active`] scope and
//! hands results back in index order, so output never depends on the
//! thread count. Each thread builds one worker state and lends it to
//! every job it runs (a campaign's reusable trial scratch); [`for_each`]
//! is the same fan-out with no state. `threads <= 1` runs inline with no
//! allocation of its own. A panicking job panics the caller once every
//! thread stops.

use mbw_telemetry::trace;
use std::collections::BTreeMap;
use std::iter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// A job submitted to [`run`].
pub type Task<'env, T> = Box<dyn FnOnce(&PoolCtx) -> T + Send + 'env>;

/// Every [`Task`]'s argument. It carries nothing and remains only because
/// the benchmark package names it (`Task`, [`crate::Gmm::fit_auto_binned`]).
#[derive(Debug, Clone, Copy)]
pub struct PoolCtx;

impl PoolCtx {
    /// The (only) context.
    pub fn serial() -> Self {
        PoolCtx
    }
}

/// Run `job(i)` for each `i` in `0..n` on up to `threads` threads, the
/// calling one included, and hand the results to `sink`, on the calling
/// thread, in index order.
pub fn for_each<T: Send, J, S>(threads: usize, n: usize, job: J, sink: S)
where
    J: Fn(usize) -> T + Sync,
    S: FnMut(T),
{
    for_each_with(threads, n, || (), |_, i| job(i), sink);
}

/// [`for_each`] with worker state: each thread that runs jobs builds one
/// `W` with `init`, on that thread, and passes it to every `job` it runs.
/// Which jobs share a state depends on the thread count, so a job's
/// result must not depend on what earlier jobs left in it.
pub fn for_each_with<W, T: Send, I, J, S>(threads: usize, n: usize, init: I, job: J, mut sink: S)
where
    I: Fn() -> W + Sync,
    J: Fn(&mut W, usize) -> T + Sync,
    S: FnMut(T),
{
    if threads <= 1 || n <= 1 {
        let mut state = init();
        return (0..n).for_each(|i| sink(job(&mut state, i)));
    }
    let (tracer, cursor) = (trace::active(), AtomicUsize::new(0));
    // Relaxed: an index publishes nothing; results travel by channel.
    let claim = || Some(cursor.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
    // Hold results that finish early until their turn.
    let (mut early, mut next) = (BTreeMap::new(), 0);
    let mut deliver = |(i, value)| {
        early.insert(i, value);
        while let Some(value) = early.remove(&next) {
            sink(value);
            next += 1;
        }
    };
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for _ in 1..threads.min(n) {
            let (tx, tracer, claim, init, job) = (tx.clone(), &tracer, &claim, &init, &job);
            // A send fails only once the caller unwinds (and drops `rx`).
            scope.spawn(move || {
                trace::scope(tracer, || {
                    let mut state = init();
                    iter::from_fn(claim).try_for_each(|i| tx.send((i, job(&mut state, i))))
                })
            });
        }
        drop(tx);
        // The caller works too, delivering what arrived between its jobs.
        let mut state = init();
        while let Some(i) = claim() {
            deliver((i, job(&mut state, i)));
            rx.try_iter().for_each(&mut deliver);
        }
        rx.iter().for_each(deliver); // ends once every worker has stopped
    });
}

/// [`for_each`], collecting the results in index order.
pub fn map<T: Send>(threads: usize, n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    for_each(threads, n, job, |value| out.push(value));
    out
}

/// Run `tasks` on up to `threads` workers; results come back in task order.
pub fn run<'env, T: Send + 'env>(threads: usize, tasks: Vec<Task<'env, T>>) -> Vec<T> {
    if threads <= 1 {
        return tasks.into_iter().map(|task| task(&PoolCtx)).collect();
    }
    let slots: Vec<_> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    map(threads, slots.len(), |i| {
        let task = slots[i].lock().expect("no task runs under it").take();
        task.expect("each index is claimed once")(&PoolCtx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbw_telemetry::{Tracer, WallClock};
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};

    #[test]
    fn results_arrive_in_task_order() {
        let tasks: Vec<Task<'_, usize>> = (0..32)
            .map(|i| -> Task<'_, usize> { Box::new(move |_ctx| i * i) })
            .collect();
        let got = run(4, tasks);
        let want: Vec<usize> = (0..32).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_matches_serial() {
        let work = |threads: usize| {
            let tasks: Vec<Task<'_, u64>> = (0..20u64)
                .map(|i| -> Task<'_, u64> {
                    Box::new(move |_ctx| (0..1000).map(|j| (i * 31 + j) % 97).sum())
                })
                .collect();
            run(threads, tasks)
        };
        assert_eq!(work(1), work(2));
        assert_eq!(work(1), work(8));
    }

    #[test]
    fn uneven_costs_still_arrive_in_index_order() {
        for threads in [1, 2, 8] {
            // Each of the first `threads - 1` jobs waits for the next, so
            // on a pool they hold one thread each and finish in reverse,
            // after the cheap tail.
            let done: Vec<AtomicBool> = (0..32).map(|_| AtomicBool::new(false)).collect();
            let got = map(threads, 32, |i| {
                while i + 1 < threads && !done[i + 1].load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                done[i].store(true, Ordering::SeqCst);
                i * 7
            });
            let want: Vec<usize> = (0..32).map(|i| i * 7).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn each_thread_lends_one_state_to_every_job_it_runs() {
        for threads in [1, 2, 8] {
            let built = AtomicUsize::new(0);
            let mut got = Vec::new();
            for_each_with(
                threads,
                40,
                || {
                    built.fetch_add(1, Ordering::SeqCst);
                    std::thread::current().id()
                },
                |owner, i| {
                    assert_eq!(*owner, std::thread::current().id(), "a state moved");
                    i * 3
                },
                |value| got.push(value),
            );
            let want: Vec<usize> = (0..40).map(|i| i * 3).collect();
            assert_eq!(got, want, "threads={threads}");
            let built = built.load(Ordering::SeqCst);
            assert!(
                (1..=threads).contains(&built),
                "{built} states for {threads}"
            );
        }
    }

    #[test]
    fn a_panicking_job_panics_the_caller() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 8] {
            // The first `threads` jobs meet at the barrier, one per thread;
            // on a pool the ones on workers then fail, inline job 5 does.
            let barrier = Barrier::new(threads);
            let caught = std::panic::catch_unwind(|| {
                map(threads, 32, |i| {
                    if i < threads {
                        barrier.wait();
                    }
                    let on_worker = std::thread::current().id() != caller;
                    let fails = on_worker || (threads == 1 && i == 5);
                    assert!(!fails, "job {i} fails");
                    i
                })
            });
            assert!(caught.is_err(), "threads={threads} returned a result");
        }
    }

    #[test]
    fn serial_ctx_runs_inline() {
        let caller = std::thread::current().id();
        let task: Task<'_, bool> = Box::new(|_ctx| std::thread::current().id() == caller);
        assert!(task(&PoolCtx::serial()));
        assert_eq!(
            map(1, 3, |_| std::thread::current().id() == caller),
            [true; 3]
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let tasks: Vec<Task<'_, ()>> = Vec::new();
        assert!(run(4, tasks).is_empty());
        assert!(map(4, 0, |i| i).is_empty());
    }

    #[test]
    fn tasks_can_borrow_caller_state() {
        let data: Vec<u64> = (0..1000).collect();
        let slice = &data[..];
        let tasks: Vec<Task<'_, u64>> = (0..4)
            .map(|i| -> Task<'_, u64> {
                Box::new(move |_ctx| slice.iter().skip(i).step_by(4).sum())
            })
            .collect();
        let parts = run(3, tasks);
        assert_eq!(parts.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn job_spans_land_in_the_callers_tracer() {
        let tracer = Tracer::new(Arc::new(WallClock::new()), 0x9001);
        let root_id = trace::scope(&tracer, || {
            let mut spans = tracer.local();
            let root = spans.begin();
            // The first four jobs meet at the barrier, one per thread.
            let barrier = Barrier::new(4);
            map(4, 16, |i| {
                if i < 4 {
                    barrier.wait();
                }
                let mut job_spans = trace::active().local();
                let span = job_spans.begin();
                job_spans.end(span, root.id, "pool.job", "test");
            });
            spans.end(root, 0, "pool.root", "test");
            root.id
        });
        let spans = tracer.spans();
        let jobs: Vec<_> = spans.iter().filter(|s| s.name == "pool.job").collect();
        assert_eq!(jobs.len(), 16);
        assert!(jobs
            .iter()
            .all(|s| s.parent == root_id && s.trace == 0x9001));
    }
}
