//! Parallel sweep runner for the experiment grids.
//!
//! Every `exp_*` binary evaluates a grid of independent simulation
//! points: each point builds its own [`Soc`](fgqos_sim::system::Soc)
//! from plain parameters, runs it to completion and reduces it to a
//! result row. The points share nothing, so they parallelize trivially —
//! but a `Soc` is `!Send` (driver handles are `Rc`-based), so the
//! *parameters* cross threads and each worker builds its simulator
//! locally.
//!
//! [`run_parallel`] is the whole API: a scoped worker pool over a shared
//! work queue. Results are collected into the **input order** regardless
//! of which worker finishes when, so table output stays byte-identical
//! to a serial run and diffable across machines. Worker count defaults
//! to the machine's parallelism and can be pinned with the
//! `FGQOS_SWEEP_THREADS` environment variable (`1` forces a serial run
//! in the calling thread).

use std::collections::VecDeque;
use std::sync::Mutex;

/// Number of workers used for a sweep of `points` points: the smaller of
/// the available hardware parallelism and the point count, overridable
/// via `FGQOS_SWEEP_THREADS`.
pub fn worker_count(points: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let configured = std::env::var("FGQOS_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(hw);
    configured.min(points.max(1))
}

/// Evaluates `f` over every point of the grid on a scoped worker pool
/// and returns the results **in input order**.
///
/// `f` must be a pure function of its point (build the simulator inside
/// the closure); it may be called from any worker thread. A panic in any
/// point propagates to the caller after the pool unwinds.
///
/// ```
/// let squares = fgqos_bench::sweep::run_parallel(vec![1u64, 2, 3, 4], |p| p * p);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn run_parallel<P, R, F>(points: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let n = points.len();
    if worker_count(n) <= 1 || n <= 1 {
        return points.into_iter().map(f).collect();
    }
    let workers = worker_count(n);
    let queue: Mutex<VecDeque<(usize, P)>> = Mutex::new(points.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Pop under the lock, compute outside it.
                let item = queue.lock().expect("sweep queue poisoned").pop_front();
                let Some((idx, point)) = item else { break };
                let result = f(point);
                *slots[idx].lock().expect("sweep slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every queued point produces a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        // Later points finish first (earlier ones sleep longer): the
        // result vector must still follow the input order.
        let points: Vec<u64> = (0..32).collect();
        let out = run_parallel(points.clone(), |p| {
            std::thread::sleep(std::time::Duration::from_micros((32 - p) * 50));
            p * 10
        });
        assert_eq!(out, points.iter().map(|p| p * 10).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_point_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_parallel((0..100usize).collect(), |p| {
            calls.fetch_add(1, Ordering::SeqCst);
            p
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn empty_and_single_point_grids() {
        let empty: Vec<u32> = run_parallel(Vec::<u32>::new(), |p| p);
        assert!(empty.is_empty());
        assert_eq!(run_parallel(vec![7u32], |p| p + 1), vec![8]);
    }

    #[test]
    fn closure_may_borrow_environment() {
        let offset = 100u64;
        let out = run_parallel(vec![1u64, 2, 3], |p| p + offset);
        assert_eq!(out, vec![101, 102, 103]);
    }

    #[test]
    fn worker_count_is_bounded_by_points() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000) >= 1);
    }
}
