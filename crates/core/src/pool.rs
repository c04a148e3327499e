//! The one worker pool every parallel sweep shares: chaos runs, soak
//! phases, explore seeds and trace-epoch decoding.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

/// Run `n` independent jobs on a scoped pool of `jobs` workers and return
/// the results in index order. Workers claim indices in order from a
/// shared queue; because every job is a pure function of its index, the
/// merged vector — and any sequential fold over it — is bit-identical to
/// running `(0..n).map(f)` inline, which is exactly what `jobs <= 1` does.
pub fn run_indexed<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    with_workers(jobs.min(n), f, |batch| batch(0..n))
}

/// Run `f` in batches on `jobs` workers that are spawned once: `body` gets
/// a `batch` function that runs `f` over a range of indices and returns
/// the results in index order. Workers run only the indices of the batch
/// in hand, so a caller bounds how much work is done ahead of it (trace
/// replay asks for one window of epochs at a time) without paying thread
/// spawns for every batch. As in [`run_indexed`], each batch equals
/// `range.map(f)`, which is what `jobs <= 1` runs inline. A panic in `f`
/// resumes on the calling thread.
pub fn with_workers<T: Send, R>(
    jobs: usize,
    f: impl Fn(usize) -> T + Sync,
    body: impl FnOnce(&mut dyn FnMut(Range<usize>) -> Vec<T>) -> R,
) -> R {
    if jobs <= 1 {
        return body(&mut |range: Range<usize>| range.map(&f).collect());
    }
    let (task_tx, task_rx) = mpsc::channel::<usize>();
    let (done_tx, done_rx) = mpsc::channel();
    let task_rx = Mutex::new(task_rx);
    std::thread::scope(|s| {
        // Owned here, so the sender drops, and the workers stop, when the
        // caller is done, also by unwinding; the scope then joins them.
        let task_tx = task_tx;
        for _ in 0..jobs {
            let (task_rx, done_tx, f) = (&task_rx, done_tx.clone(), &f);
            s.spawn(move || loop {
                // The lock is held to take an index, not while `f` runs.
                // Taking fails once the caller is done and drops its sender.
                let next = task_rx.lock().expect("no worker panics holding the queue").recv();
                let Ok(i) = next else { break };
                let out = catch_unwind(AssertUnwindSafe(|| f(i)));
                if done_tx.send((i, out)).is_err() {
                    break;
                }
            });
        }
        // Workers hold the only senders now, so a lost answer fails the
        // receive below instead of hanging it.
        drop(done_tx);
        body(&mut |range: Range<usize>| {
            for i in range.clone() {
                task_tx.send(i).expect("workers run until the caller is done");
            }
            let mut out: Vec<Option<T>> = Vec::new();
            out.resize_with(range.len(), || None);
            for _ in range.clone() {
                let (i, v) = done_rx.recv().expect("every index sent is answered");
                out[i - range.start] = Some(v.unwrap_or_else(|panic| resume_unwind(panic)));
            }
            out.into_iter().map(|v| v.expect("every index of the batch answered")).collect()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_come_back_in_index_order_at_any_worker_count() {
        for jobs in [0, 1, 2, 3, 8] {
            let got = with_workers(
                jobs,
                |i| i * i,
                |batch| {
                    let mut all = Vec::new();
                    for (start, end) in [(0, 3), (3, 3), (3, 10), (10, 11)] {
                        let part = batch(start..end);
                        assert_eq!(part.len(), end - start, "jobs {jobs}");
                        all.extend(part);
                    }
                    all
                },
            );
            assert_eq!(got, (0..11).map(|i| i * i).collect::<Vec<_>>(), "jobs {jobs}");
            assert_eq!(run_indexed(jobs, 11, |i| i * i), got, "jobs {jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "job 5 fails")]
    fn a_panicking_job_resumes_on_the_caller() {
        run_indexed(3, 8, |i| {
            assert!(i != 5, "job 5 fails");
            i
        });
    }
}
