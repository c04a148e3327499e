//! The one worker pool every parallel sweep shares: chaos runs, soak
//! phases, explore seeds and trace-epoch decoding.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `n` independent jobs on a scoped pool of `jobs` workers and return
/// the results in index order. Workers claim indices from a shared
/// counter; because every job is a pure function of its index, the merged
/// vector — and any sequential fold over it — is bit-identical to running
/// `(0..n).map(f)` inline, which is exactly what `jobs <= 1` does.
pub fn run_indexed<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(n, || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                let (next, f) = (&next, &f);
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("worker panicked") {
                out[i] = Some(v);
            }
        }
    });
    out.into_iter().map(|v| v.expect("all indices claimed")).collect()
}
