//! A fixed-size shared-cursor scheduler for per-zone stepping.
//!
//! The fleet runner fans each phase of the control minute (decide,
//! advance) across a fixed worker pool. The work items are zone indices;
//! zone state lives in `Mutex`-wrapped actors owned by the caller, so the
//! scheduler only moves *indices*. Workers claim the next unclaimed index
//! from one shared atomic cursor, so a slow zone holds up only the worker
//! that claimed it while the others drain the rest. No new work is
//! produced mid-phase, so a cursor past the last index is the termination
//! condition — no condition variables, no unsafe, no external crates.
//!
//! Determinism: every zone's task is independent (its own plant, RNG,
//! controller) and its result is written to its own slot, so the schedule
//! — which worker runs which zone, in what order — cannot change any
//! result. One worker and sixteen workers produce bit-identical per-zone
//! outputs; the scheduler only trades wall-clock for cores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `task` once per item index in `0..n` across `workers` threads,
/// returning the results in index order. The caller's thread is one of
/// the workers, so a phase spawns `workers - 1` threads. `workers <= 1`
/// runs serially on the caller's thread (the determinism baseline).
///
/// Panics in `task` propagate: the scoped-thread join unwinds the caller.
pub fn run_sharded<R, F>(workers: usize, n: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(task).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        // Relaxed suffices: the cursor hands out indices and publishes
        // nothing else; results reach the caller through the slot
        // mutexes and the scope's join.
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= n {
            break;
        }
        *slots[idx].lock().expect("slot lock") = Some(task(idx));
    };

    std::thread::scope(|scope| {
        for _ in 1..workers.min(n) {
            scope.spawn(work);
        }
        work();
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every index below n is claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [0, 1, 2, 7, 64] {
            let out = run_sharded(workers, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = run_sharded(4, 37, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 37);
        assert_eq!(out.len(), 37);
    }

    #[test]
    fn a_slow_zone_does_not_serialize_the_rest() {
        // One slow zone must not hold the other 15 behind it: while one
        // worker runs it, the others keep claiming from the cursor, so
        // total wall time stays near the slow task.
        let start = std::time::Instant::now();
        run_sharded(4, 16, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(80));
            } else {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        // Serial would be 80 + 15*5 = 155 ms; the shared cursor stays
        // close to the 80 ms straggler. Generous bound for slow CI.
        assert!(start.elapsed() < std::time::Duration::from_millis(150));
    }

    #[test]
    fn empty_and_single_item_sets_work() {
        assert_eq!(run_sharded(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_sharded(8, 1, |i| i + 1), vec![1]);
    }
}
