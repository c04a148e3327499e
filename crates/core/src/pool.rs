//! The one worker pool every parallel sweep shares: explore runs, chaos
//! runs and bugs, soak phases and trace-epoch decoding.

use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;

/// Indices each worker may run ahead of the fold. Enough to keep a worker
/// busy while the fold digests a result; few enough that a stopped sweep
/// discards little and a replay holds few decoded epochs.
pub(crate) const AHEAD_PER_WORKER: usize = 4;

/// Run `job(i)` for every `i` in `0..n` and hand each result to `fold`,
/// on the calling thread, in index order. Up to `jobs` scoped workers
/// claim indices in order, none more than [`AHEAD_PER_WORKER`] per worker
/// past the last one folded, so the results held at once are bounded by
/// that look-ahead, not by `n`. A `Break` from `fold` stops
/// the hand-out and is returned once the jobs already running have
/// finished; their results are dropped unfolded. A job's panic resumes
/// on the calling thread. `jobs <= 1` or `n <= 1` is a plain loop on the
/// calling thread that runs each job after the fold of the one before.
///
/// Because every job is a pure function of its index, `fold` sees the
/// same sequence, and stops at the same index, whatever `jobs` is.
pub fn fold_indexed<T: Send, B>(
    jobs: usize,
    n: usize,
    job: impl Fn(usize) -> T + Sync,
    mut fold: impl FnMut(usize, T) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).try_for_each(|i| fold(i, job(i)));
    }
    let ahead = workers * AHEAD_PER_WORKER;
    let (claim_tx, claim_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let claim_rx = Mutex::new(claim_rx);
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        // Owned here, so the sender drops, and the workers stop, when the
        // fold ends, also by unwinding; the scope then joins them.
        let claim_tx = claim_tx;
        for _ in 0..workers {
            let (claim_rx, done_tx, job, stop) = (&claim_rx, done_tx.clone(), &job, &stop);
            s.spawn(move || loop {
                // The lock is held to take an index, not while the job runs.
                let claim = claim_rx.lock().expect("no worker panics holding the queue").recv();
                let Some(i) = claim.ok().filter(|_| !stop.load(Ordering::Relaxed)) else { break };
                let out = catch_unwind(AssertUnwindSafe(|| job(i)));
                done_tx.send((i, out)).expect("the caller's receiver outlives the scope");
            });
        }
        // Workers hold the only senders now, so a lost answer fails the
        // receive below instead of hanging it.
        drop(done_tx);
        let hand_out = |i: usize| {
            if i < n {
                claim_tx.send(i).expect("workers run until the fold ends");
            }
        };
        (0..ahead).for_each(hand_out);
        // Index `i` waits at `i % ahead` until it is folded.
        let mut ready: Vec<Option<thread::Result<T>>> = (0..ahead).map(|_| None).collect();
        for i in 0..n {
            while ready[i % ahead].is_none() {
                let (j, out) = done_rx.recv().expect("every index handed out is answered");
                ready[j % ahead] = Some(out);
            }
            hand_out(i + ahead);
            let out = ready[i % ahead].take().expect("received above");
            let flow = fold(i, out.unwrap_or_else(|panic| resume_unwind(panic)));
            if flow.is_break() {
                stop.store(true, Ordering::Relaxed);
                return flow;
            }
        }
        ControlFlow::Continue(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_reach_the_fold_in_index_order_at_any_worker_count() {
        let caller = thread::current().id();
        for jobs in [0, 1, 2, 3, 8] {
            for n in [0, 1, 11] {
                let mut got = Vec::new();
                let job = |i: usize| (i * i, thread::current().id());
                let flow = fold_indexed(jobs, n, job, |i, (sq, id)| {
                    assert!(jobs > 1 || id == caller, "jobs {jobs} runs inline");
                    got.push((i, sq));
                    ControlFlow::<()>::Continue(())
                });
                assert!(flow.is_continue());
                assert_eq!(got, (0..n).map(|i| (i, i * i)).collect::<Vec<_>>(), "jobs {jobs}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "job 5 fails")]
    fn a_panicking_job_resumes_on_the_caller() {
        let job = |i| assert!(i != 5, "job 5 fails");
        let _ = fold_indexed(3, 8, job, |_, ()| ControlFlow::<()>::Continue(()));
    }

    /// A `Break` at index `k` stops the hand-out: inline, no job starts
    /// after it; with workers, at most the look-ahead past it does.
    #[test]
    fn a_break_stops_the_hand_out_within_the_look_ahead() {
        for jobs in [0, 1, 2, 3, 8] {
            for k in [0, 4, 17] {
                let started = AtomicUsize::new(0);
                let mut folded = Vec::new();
                let job = |i| {
                    started.fetch_add(1, Ordering::SeqCst);
                    i
                };
                let flow = fold_indexed(jobs, 100, job, |i, v| {
                    folded.push(v);
                    if i == k {
                        ControlFlow::Break(i)
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                assert_eq!(flow, ControlFlow::Break(k));
                assert_eq!(folded, (0..=k).collect::<Vec<_>>());
                let ahead = if jobs <= 1 { 0 } else { jobs * AHEAD_PER_WORKER };
                let started = started.load(Ordering::SeqCst);
                assert!(started <= k + 1 + ahead, "jobs {jobs}, break at {k}: {started} started");
            }
        }
    }
}
