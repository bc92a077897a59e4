//! A multi-worker run without an attached pool solves on a private
//! `SharedSolvePool` that lives exactly as long as the run: its worker
//! threads exist while the flow runs and are joined before `run` returns.
//! A test binary of its own, so the process's thread count moves only with
//! this binary's pools (its tests serialise on a lock).

#![cfg(target_os = "linux")]

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use golden_free_htd::detect::{DetectionSession, FlowEvent, PropertyScheduler, SessionBuilder};
use golden_free_htd::rtl::Design;

/// Serialises the tests: each counts the whole process's threads.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// Waits (briefly) for the thread count to drop back to `baseline`: a
/// joined thread may linger in procfs for a moment until the kernel reaps
/// it, a leaked worker parks there forever.
fn settles_to(baseline: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() > baseline {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A clean pipeline on two private workers — oversubscribed so the run
/// gets two workers on a single-CPU host too.
fn two_worker_session() -> DetectionSession {
    let mut d = Design::new("pipeline");
    let input = d.add_input("in", 8).unwrap();
    let s1 = d.add_register("s1", 8, 0).unwrap();
    let s2 = d.add_register("s2", 8, 0).unwrap();
    d.set_register_next(s1, d.signal(input)).unwrap();
    d.set_register_next(s2, d.signal(s1)).unwrap();
    d.add_output("out", d.signal(s2)).unwrap();
    let scheduler =
        PropertyScheduler::new(NonZeroUsize::new(2).unwrap()).with_oversubscription(true);
    SessionBuilder::new(d.validated().unwrap())
        .scheduler(scheduler)
        .build()
        .unwrap()
}

#[test]
fn the_private_pool_leaves_no_threads_behind() {
    let _serial = serial();
    let mut session = two_worker_session();
    let baseline = threads();
    for _ in 0..2 {
        let mut during = 0;
        let report = session
            .run_with_observer(&mut |event| {
                if matches!(event, FlowEvent::LevelStarted { .. }) {
                    during = during.max(threads());
                }
            })
            .unwrap();
        assert!(report.outcome.is_secure(), "{report}");
        assert_eq!(
            during,
            baseline + 2,
            "the run solves on two private workers"
        );
        assert!(settles_to(baseline), "run joins its private pool");
    }
}

/// A panicking observer unwinds out of `run` without stranding the private
/// pool's workers (they are joined on the way out).
#[test]
fn a_panicking_observer_still_joins_the_private_pool() {
    let _serial = serial();
    let mut session = two_worker_session();
    let baseline = threads();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.run_with_observer(&mut |_| panic!("observer failure"))
    }));
    assert!(unwound.is_err(), "the observer's panic propagates");
    assert!(settles_to(baseline), "run joins its private pool");
}
