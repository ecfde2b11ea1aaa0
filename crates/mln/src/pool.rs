//! The workspace's one worker pool: a transient work-stealing loop over
//! `std::thread::scope`, shared by parallel grounding (one binding query
//! per job) and the search scheduler (one partition pass per job).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over the jobs `0..jobs` on one scoped thread per entry of
/// `states` (at least one), returning the results in job order whichever
/// worker ran each job. Workers claim the next job off a shared counter
/// as they finish; each owns one entry of `states` for the whole call,
/// so state that outlives a job (a search scratch) is built once per
/// worker. Runs on the calling thread, spawning nothing, when `states`
/// or the job list has a single entry.
pub fn pool_map<S, T, F>(jobs: usize, states: &mut [S], f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = states.len().min(jobs);
    if workers <= 1 {
        let state = &mut states[0];
        return (0..jobs).map(|j| f(state, j)).collect();
    }
    // Relaxed: the counter only hands out job indices; results reach the
    // caller through the slot mutexes and the scope's join.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    // A worker's panic resumes here once every worker has stopped.
    std::thread::scope(|scope| {
        for state in &mut states[..workers] {
            let (next, slots, f) = (&next, &slots, &f);
            scope.spawn(move || loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= jobs {
                    break;
                }
                let result = f(state, j);
                *slots[j].lock().expect("`f` runs outside the lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().ok().flatten().expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::pool_map;

    #[test]
    fn results_come_back_in_job_order_at_every_pool_size() {
        let want: Vec<usize> = (0..100).map(|j| j * j).collect();
        for workers in 1..=5 {
            let mut states = vec![0usize; workers];
            let got = pool_map(100, &mut states, |runs, j| {
                *runs += 1;
                j * j
            });
            assert_eq!(got, want, "workers={workers}");
            assert_eq!(states.iter().sum::<usize>(), 100, "every job ran once");
        }
        assert!(pool_map(0, &mut [(), ()], |_, j| j).is_empty());
    }

    #[test]
    fn worker_panics_reach_the_caller() {
        let r = std::panic::catch_unwind(|| {
            pool_map(4, &mut [(), ()], |_, j| assert_ne!(j, 2, "job 2 fails"))
        });
        let payload = r.expect_err("a worker's panic resumes on the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("a scoped thread panicked"), "payload: {msg:?}");
    }
}
