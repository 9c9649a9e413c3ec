//! The injectable time source every metric, trace event, rolling window
//! and background job reads through, and the one way to wait on it.
//!
//! Under a [`ManualClock`] every timestamp, window expiry and cadence
//! decision is deterministic, which turns "the window must NOT have
//! expired yet" from a probabilistic assertion into a provable one.
//!
//! **The waiting rule.** Nothing sleeps for a deadline's worth of wall
//! time and nothing picks its own polling slice: a thread that must wait
//! until the clock reads `until` blocks — on a condvar, so it can be woken
//! early — for [`Clock::wall_until`]`(until)` and then reads
//! [`Clock::now`] again. A [`SystemClock`] answers with the time
//! remaining, so production never polls; a [`ManualClock`] can be moved by
//! a test at any instant, so it answers one short constant slice, the only
//! polling constant in the product. [`Background`] is that rule as a
//! thread: every periodic job (adaptive refit, replica health probe, WAL
//! group commit) is a plain `step(now) -> next_deadline` closure it runs.
//!
//! One consequence is accepted: a step runs only when the clock *reaches*
//! its deadline. A condition that is not a clock event (say, ingest volume
//! crossing a threshold) is therefore noticed at the step's next deadline —
//! under a hand-moved clock, the next time the test moves it — not at the
//! next wall slice.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A monotonic time source. Injectable so time-dependent behavior is
/// deterministic under test: a [`ManualClock`] only moves when the test
/// advances it.
pub trait Clock: Send + Sync + 'static {
    /// Monotonic elapsed time since the clock's origin.
    fn now(&self) -> Duration;

    /// How long a thread may block in wall time before [`Clock::now`] can
    /// have reached `until` (zero once it has). Waiters re-read `now`
    /// after blocking this long; see the module doc.
    fn wall_until(&self, until: Duration) -> Duration;
}

/// The production clock: wall progress since construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is "now".
    #[allow(clippy::new_without_default)]
    pub fn new() -> SystemClock {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn wall_until(&self, until: Duration) -> Duration {
        until.saturating_sub(self.now())
    }
}

/// A test clock that advances only when told to.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: Mutex<Duration>,
}

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Move the clock forward by `by`.
    pub fn advance(&self, by: Duration) {
        *self.now.lock().unwrap() += by;
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        *self.now.lock().unwrap()
    }

    fn wall_until(&self, until: Duration) -> Duration {
        // A test may advance the clock at any instant, so an unreached
        // deadline is re-checked after one short slice of wall time.
        if self.now() >= until {
            Duration::ZERO
        } else {
            Duration::from_millis(1)
        }
    }
}

/// A background thread running one clock-driven job: it blocks until the
/// clock reaches the job's next deadline, calls `step(now)`, and takes the
/// deadline `step` returns as the next one. Dropping the handle wakes the
/// thread, stops it and joins it, however far away the deadline is.
pub struct Background {
    stop: Arc<(Mutex<bool>, Condvar)>,
    worker: Option<JoinHandle<()>>,
}

impl Background {
    /// Start the job: `step` first runs once `clock` reads at least
    /// `first_deadline`, and never before the deadline it last returned. It
    /// runs on the background thread with no lock held, so it may block and
    /// may panic (which ends the thread; see [`Background::alive`]).
    pub fn spawn(
        clock: Arc<dyn Clock>,
        first_deadline: Duration,
        mut step: impl FnMut(Duration) -> Duration + Send + 'static,
    ) -> Background {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            let (flag, cv) = &*shared;
            let mut next = first_deadline;
            // Only ever locked for a flag read or write, never across
            // `step`, so a panicking step cannot poison it.
            let mut stopped = flag.lock().expect("stop flag is never poisoned");
            while !*stopped {
                let now = clock.now();
                if now < next {
                    stopped = cv
                        .wait_timeout(stopped, clock.wall_until(next))
                        .expect("stop flag is never poisoned")
                        .0;
                    continue;
                }
                drop(stopped);
                next = step(now);
                stopped = flag.lock().expect("stop flag is never poisoned");
            }
        });
        Background {
            stop,
            worker: Some(worker),
        }
    }

    /// Is the thread still running? `false` after [`Background::stop`] or
    /// once a step has panicked.
    pub fn alive(&self) -> bool {
        self.worker.as_ref().is_some_and(|w| !w.is_finished())
    }

    /// Wake the thread, stop it and wait for it to finish (a step already
    /// running completes first). Idempotent; `Drop` calls it.
    pub fn stop(&mut self) {
        let (flag, cv) = &*self.stop;
        if let Ok(mut stopped) = flag.lock() {
            *stopped = true;
        }
        cv.notify_all();
        if let Some(worker) = self.worker.take() {
            // A panicked step already reported itself through `alive`.
            let _ = worker.join();
        }
    }
}

impl Drop for Background {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn manual_clock_moves_only_on_advance() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_millis(250));
        c.advance(Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(500));
    }

    #[test]
    fn system_clock_is_monotone() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn wall_until_is_the_remainder_on_system_time_and_a_slice_on_manual_time() {
        let sys = SystemClock::new();
        let hour = Duration::from_secs(3_600);
        let wall = sys.wall_until(hour);
        assert!(wall <= hour && wall > hour - Duration::from_secs(60));
        assert_eq!(sys.wall_until(Duration::ZERO), Duration::ZERO);

        let manual = ManualClock::new();
        let slice = manual.wall_until(hour);
        assert!(slice > Duration::ZERO && slice <= Duration::from_millis(5));
        assert_eq!(manual.wall_until(Duration::from_nanos(1)), slice);
        manual.advance(hour);
        assert_eq!(manual.wall_until(hour), Duration::ZERO);
    }

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    /// Spin (yielding) until `cond` holds or ten wall seconds pass.
    fn wait_for(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + secs(10);
        while !cond() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        cond()
    }

    /// Give the runner a real-time window to (wrongly) run a step.
    fn settle() {
        let until = Instant::now() + Duration::from_millis(30);
        while Instant::now() < until {
            std::thread::yield_now();
        }
    }

    #[test]
    fn runner_steps_once_per_deadline_reached_on_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let seen: Arc<Mutex<Vec<Duration>>> = Arc::default();
        let log = Arc::clone(&seen);
        // A ten-second period anchored at the time the step ran.
        let runner = Background::spawn(clock.clone(), secs(10), move |now| {
            log.lock().unwrap().push(now);
            now + secs(10)
        });
        let runs = || seen.lock().unwrap().len();

        // However much wall time passes, a frozen clock runs nothing.
        settle();
        assert_eq!(runs(), 0, "stepped before its first deadline");
        clock.advance(secs(9));
        settle();
        assert_eq!(runs(), 0, "9 s < 10 s");

        // Reaching the deadline runs the step exactly once...
        clock.advance(secs(1));
        assert!(wait_for(|| runs() == 1), "deadline reached, no step");
        settle();
        assert_eq!(runs(), 1, "one deadline, one step");

        // ...and a jump across several periods is still one deadline.
        clock.advance(secs(35));
        assert!(wait_for(|| runs() == 2));
        settle();
        assert_eq!(runs(), 2);
        clock.advance(secs(10));
        assert!(wait_for(|| runs() == 3));

        assert!(runner.alive());
        drop(runner);
        assert_eq!(*seen.lock().unwrap(), [secs(10), secs(45), secs(55)]);
    }

    #[test]
    fn runner_with_a_far_deadline_drops_promptly_on_system_time() {
        let clock = Arc::new(SystemClock::new());
        let steps = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&steps);
        let runner = Background::spawn(clock, secs(3_600), move |now| {
            counter.fetch_add(1, Ordering::SeqCst);
            now + secs(3_600)
        });
        settle(); // let it reach its hour-long wait
        let t0 = Instant::now();
        drop(runner);
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "stop + join took {:?}",
            t0.elapsed()
        );
        assert_eq!(steps.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_panicking_step_reads_as_dead_and_drops_cleanly() {
        let clock = Arc::new(ManualClock::new());
        let runner = Background::spawn(clock, Duration::ZERO, |_| panic!("step failed"));
        assert!(wait_for(|| !runner.alive()), "a dead worker must show");
        drop(runner); // must neither hang nor propagate the panic
    }
}
