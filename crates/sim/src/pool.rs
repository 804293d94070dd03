//! The worker pool every fan-out of independent simulations runs on.
//!
//! Sweep points, their replications and an ensemble's sub-simulations are
//! independent, deterministic runs: each is a function of its index
//! alone. [`run_parallel`] spreads them over scoped worker threads and
//! returns the results in index order, so the pool can change wall-clock
//! time, never a result.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work(i)` for `i` in `0..n` on up to `workers` scoped threads and
/// returns the results in index order. With one worker (or at most one
/// item) it runs inline on the calling thread.
///
/// Work is claimed through a single atomic counter and every worker keeps
/// its results in a thread-local vector, merged into ordered slots after
/// the pool joins, so no lock is held while an item runs.
pub fn run_parallel<R, F>(workers: usize, n: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, work(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("pool worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_for_any_worker_count() {
        for workers in [0, 1, 2, 3, 16] {
            for n in [0, 1, 2, 3, 50] {
                let out = run_parallel(workers, n, |i| i * i);
                assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
            }
        }
        // Every item runs exactly once, also with more workers than items.
        let runs = AtomicUsize::new(0);
        run_parallel(16, 3, |_| runs.fetch_add(1, Ordering::Relaxed));
        assert_eq!(runs.into_inner(), 3);
    }
}
