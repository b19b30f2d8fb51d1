//! A small parallel sweep runner.
//!
//! Experiment sweeps consist of many *independent* simulations (different
//! graphs, placements, robot counts or seeds). Following the data-parallel
//! guidance for this domain, each simulation runs to completion on one
//! thread with no shared mutable state; the runner simply distributes jobs
//! over `std::thread::scope` workers (scoped threads are in std since 1.63,
//! so no external thread-pool dependency is needed on this hot path) and
//! returns results in job order.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;

/// Runs `jobs` on up to `threads` worker threads and returns their results in
/// the original job order.
///
/// Each job is an independent closure; a panic inside a job propagates and
/// aborts the whole run. Sweep cells never reach that: their jobs go
/// through `gather_core::sweep::SweepRow::compute`, which turns a panic into
/// an error row.
pub fn run_parallel<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let job_count = jobs.len();
    if job_count == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(job_count);
    if threads == 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }

    let queue: Mutex<VecDeque<(usize, F)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, T)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let queue = &queue;
            scope.spawn(move || loop {
                let job = queue.lock().expect("sweep queue poisoned").pop_front();
                match job {
                    Some((idx, f)) => {
                        let result = f();
                        // The receiver lives for the whole scope, so sends
                        // only fail if the main thread panicked; ignore.
                        let _ = tx.send((idx, result));
                    }
                    None => break,
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..job_count).map(|_| None).collect();
        for (idx, value) in rx.iter() {
            slots[idx] = Some(value);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job produces exactly one result"))
            .collect()
    })
}

/// The number of worker threads to use by default: the machine's available
/// parallelism (at least 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_job_list_returns_empty() {
        let out: Vec<u32> = run_parallel(Vec::<Box<dyn FnOnce() -> u32 + Send>>::new(), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn results_preserve_job_order() {
        let jobs: Vec<_> = (0..50u64).map(|i| move || i * i).collect();
        let out = run_parallel(jobs, 8);
        assert_eq!(out, (0..50u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path_works() {
        let jobs: Vec<_> = (0..5u64).map(|i| move || i + 1).collect();
        let out = run_parallel(jobs, 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs: Vec<_> = (0..3u64).map(|i| move || i).collect();
        let out = run_parallel(jobs, 64);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn heavier_than_thread_count_loads_complete() {
        let jobs: Vec<_> = (0..200u64).map(|i| move || i.wrapping_mul(31)).collect();
        let out = run_parallel(jobs, 3);
        assert_eq!(out.len(), 200);
        assert_eq!(out[199], 199u64.wrapping_mul(31));
    }
}
