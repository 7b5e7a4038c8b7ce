//! A deterministic, panic-tolerant self-scheduling worker pool over
//! scoped threads.
//!
//! Workers pull the next job index from a shared atomic cursor, so the
//! *assignment* of jobs to workers is racy — but every job is independent
//! and results are scattered back by job index, so the returned vector is
//! identical for any worker count. That property (not lock-step
//! scheduling) is what the `--jobs 4` ≡ `--jobs 1` determinism test pins.
//!
//! A panic inside `run` is caught at the job boundary: the job's slot
//! comes back `None`, the worker moves on to the next job, and the other
//! workers never notice. One poisoned grid point cannot take down a
//! multi-hour campaign.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `run` over every job on `workers` threads, returning results in
/// job order regardless of which worker executed which job. A job whose
/// `run` panicked yields `None` in its slot; all other jobs still run and
/// return normally.
///
/// `init(worker_id)` builds one per-worker state value (e.g. a tracer)
/// that is threaded through every job that worker executes; the campaign
/// runner keeps none and passes `|_| ()`. A panic leaves that state in
/// place — `run` must tolerate state touched by a panicked predecessor.
pub fn run_jobs<J, S, R>(
    jobs: &[J],
    workers: usize,
    init: impl Fn(usize) -> S + Sync,
    run: impl Fn(&mut S, usize, &J) -> R + Sync,
) -> Vec<Option<R>>
where
    J: Sync,
    R: Send,
{
    let workers = workers.clamp(1, jobs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|wid| {
                let cursor = &cursor;
                let init = &init;
                let run = &run;
                scope.spawn(move || {
                    let mut state = init(wid);
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        let r = catch_unwind(AssertUnwindSafe(|| run(&mut state, i, &jobs[i])));
                        out.push((i, r.ok()));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            // A worker that somehow died outside the per-job boundary
            // (e.g. a panicking `init`) forfeits its results; its jobs'
            // slots stay `None` rather than poisoning the whole pool.
            let Ok(pairs) = h.join() else { continue };
            for (i, r) in pairs {
                slots[i] = r;
            }
        }
    });
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..97).collect();
        let serial = run_jobs(&jobs, 1, |_| (), |_, _, j| j * j);
        for workers in [2, 3, 8] {
            let parallel = run_jobs(&jobs, workers, |_| (), |_, _, j| j * j);
            assert_eq!(parallel, serial, "workers={workers}");
        }
        assert_eq!(serial[10], Some(100));
    }

    #[test]
    fn every_job_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let jobs: Vec<usize> = (0..50).collect();
        let hits = AtomicU64::new(0);
        let out = run_jobs(
            &jobs,
            4,
            |_| (),
            |_, i, j| {
                hits.fetch_add(1, Ordering::Relaxed);
                assert_eq!(i, *j);
                i
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), 50);
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn worker_state_persists_across_jobs() {
        // Each worker counts the jobs it ran; counts must total the job count.
        let jobs: Vec<usize> = (0..40).collect();
        let counts: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        run_jobs(
            &jobs,
            3,
            |wid| wid,
            |wid, _, _| {
                counts[*wid].fetch_add(1, Ordering::Relaxed);
            },
        );
        let total: usize = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        // Quiet the default panic-backtrace printer for the expected panics.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let jobs: Vec<u64> = (0..20).collect();
        let out = run_jobs(
            &jobs,
            3,
            |_| (),
            |_, _, j| {
                assert!(j % 7 != 3, "poisoned job {j}");
                j * 2
            },
        );
        std::panic::set_hook(prev);
        for (i, slot) in out.iter().enumerate() {
            if i % 7 == 3 {
                assert_eq!(*slot, None, "job {i} should have panicked");
            } else {
                assert_eq!(*slot, Some(i as u64 * 2), "job {i} should have survived");
            }
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<Option<u32>> = run_jobs(&[] as &[u32], 8, |_| (), |_, _, j| *j);
        assert!(out.is_empty());
    }
}
