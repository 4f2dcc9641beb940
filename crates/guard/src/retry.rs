//! [`RetryPolicy`]: a deterministic retry/backoff schedule for transient
//! failures (worker panics, chaos-injected faults), and
//! [`RetryPolicy::run_isolated`], the one crash-isolated loop that runs
//! attempts under it for both the batch runner and the diff service.
//!
//! Retrying is only safe when it is *bounded* and *deterministic*: a
//! service that retries forever converts one poisoned request into a
//! stuck worker, and a service whose backoff depends on ambient entropy
//! cannot replay a failing trace. `RetryPolicy` therefore fixes the
//! attempt ceiling up front and derives its jitter from the per-request
//! salt the caller passes, using the same splitmix64 generator as
//! [`ChaosObserver`](crate::ChaosObserver) — one RNG path
//! for both injecting faults and recovering from them, so a chaos run
//! reproduces bit-for-bit from its seed.
//!
//! ```
//! use std::time::Duration;
//! use hierdiff_guard::RetryPolicy;
//!
//! let policy = RetryPolicy::retries(2).with_base_backoff(Duration::from_millis(4));
//! assert_eq!(policy.max_attempts(), 3);
//! // Jitter is deterministic in (policy, attempt, salt).
//! assert_eq!(policy.backoff(1, 7), policy.backoff(1, 7));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use crate::chaos::splitmix64;

/// The cap on one backoff sleep, however many attempts came before.
const MAX_BACKOFF: Duration = Duration::from_millis(250);

/// A bounded, deterministic retry schedule: up to
/// [`max_attempts`](RetryPolicy::max_attempts) tries per request, with
/// exponential backoff between failed attempts and seeded jitter (half
/// to full of the exponential step) to de-synchronise retry storms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_backoff: Duration,
}

impl Default for RetryPolicy {
    /// One retry (two attempts) — the schedule the batch runner has
    /// always used, now explicit.
    fn default() -> RetryPolicy {
        RetryPolicy::retries(1)
    }
}

impl RetryPolicy {
    /// A policy allowing `retries` retries after the first attempt
    /// (`max_attempts = retries + 1`), with a 1 ms base backoff. Every
    /// backoff is capped at 250 ms.
    pub fn retries(retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: retries.saturating_add(1),
            base_backoff: Duration::from_millis(1),
        }
    }

    /// No retries: every failure is final after the first attempt.
    pub fn none() -> RetryPolicy {
        RetryPolicy::retries(0)
    }

    /// Sets the backoff before the first retry; attempt `n`'s backoff is
    /// `base × 2^(n-1)`, capped at 250 ms. A zero base disables backoff
    /// sleeps entirely (useful in tests).
    pub fn with_base_backoff(mut self, base: Duration) -> RetryPolicy {
        self.base_backoff = base;
        self
    }

    /// Total attempts allowed per request (first try included); at least 1.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Retries allowed after the first attempt.
    pub fn retry_limit(&self) -> u32 {
        self.max_attempts() - 1
    }

    /// The backoff to sleep before retry number `attempt` (1-based: the
    /// retry after the first failure is attempt 1). `salt` is a
    /// per-request value (e.g. the request index) so concurrent retries
    /// de-synchronise; the result is a pure function of
    /// `(policy, attempt, salt)`.
    ///
    /// The exponential step is `base × 2^(attempt-1)` capped at 250 ms;
    /// jitter scales it into `[step/2, step]`.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.base_backoff.as_nanos() as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        let shift = attempt.saturating_sub(1).min(32);
        let step = base
            .saturating_shl(shift)
            .min(MAX_BACKOFF.as_nanos() as u64)
            .max(1);
        let mut state = salt.rotate_left(17) ^ u64::from(attempt);
        let r = splitmix64(&mut state);
        let half = step / 2;
        let jittered = step - half + (r % (half + 1));
        Duration::from_nanos(jittered)
    }

    /// Runs up to `attempts` tries of `attempt` (passed its 1-based
    /// number), each under `catch_unwind`, sleeping
    /// [`backoff(n - 1, salt)`](RetryPolicy::backoff) before try `n > 1`.
    /// After a try panics, `quarantine` runs before the next one, so the
    /// caller can rebuild what the try may have left half-changed.
    pub fn run_isolated<T, E>(
        &self,
        attempts: u32,
        salt: u64,
        mut attempt: impl FnMut(u32) -> Attempt<T, E>,
        mut quarantine: impl FnMut(),
    ) -> Retried<T, E> {
        let (mut error, mut panics) = (None, 0);
        for n in 1..=attempts {
            if n > 1 {
                std::thread::sleep(self.backoff(n - 1, salt));
            }
            match catch_unwind(AssertUnwindSafe(|| attempt(n))) {
                Ok(Attempt::Done(value)) => return Retried::Done(value, n),
                Ok(Attempt::Stop(e)) => return Retried::Stopped(e),
                Ok(Attempt::Retry(e)) => error = Some(e),
                Err(_) => {
                    (error, panics) = (None, panics + 1);
                    quarantine();
                }
            }
        }
        Retried::Exhausted(error, panics)
    }
}

/// What one attempt of [`RetryPolicy::run_isolated`] returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Attempt<T, E> {
    /// Success: the loop ends with this value.
    Done(T),
    /// A failure no retry can fix (cancellation, a passed deadline): the
    /// loop ends at once.
    Stop(E),
    /// A typed failure the next attempt may get past.
    Retry(E),
}

/// How [`RetryPolicy::run_isolated`] ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Retried<T, E> {
    /// The successful attempt's value, and the attempts used.
    Done(T, u32),
    /// The error an attempt stopped the loop with.
    Stopped(E),
    /// Every attempt failed: the last one's typed error (`None` when it
    /// panicked), and how many attempts panicked.
    Exhausted(Option<E>, u32),
}

/// `u64::saturating_shl` is unstable; a shift past 63 saturates to max
/// here, which the backoff cap immediately clamps anyway.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if shift >= 64 || self.leading_zeros() < shift {
            u64::MAX
        } else {
            self << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_retry_once() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts(), 2);
        assert_eq!(p.retry_limit(), 1);
    }

    #[test]
    fn none_never_retries() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts(), 1);
        assert_eq!(p.retry_limit(), 0);
    }

    #[test]
    fn backoff_grows_exponentially_within_bounds() {
        let p = RetryPolicy::retries(8).with_base_backoff(Duration::from_millis(2));
        let mut prev = Duration::ZERO;
        for attempt in 1..=8 {
            let d = p.backoff(attempt, 0);
            let step = Duration::from_millis(2u64 << (attempt - 1)).min(MAX_BACKOFF);
            assert!(d <= step, "attempt {attempt}: {d:?} over step {step:?}");
            assert!(d >= step / 2, "attempt {attempt}: {d:?} under half step");
            assert!(d >= prev / 2, "collapsing backoff at attempt {attempt}");
            prev = d;
        }
    }

    #[test]
    fn backoff_is_deterministic_and_salted() {
        let p = RetryPolicy::retries(3);
        assert_eq!(p.backoff(2, 5), p.backoff(2, 5));
        let distinct: std::collections::HashSet<Duration> =
            (0..32).map(|salt| p.backoff(1, salt)).collect();
        assert!(distinct.len() > 4, "salt must spread jitter: {distinct:?}");
    }

    #[test]
    fn zero_base_means_no_sleep() {
        let p = RetryPolicy::retries(3).with_base_backoff(Duration::ZERO);
        assert_eq!(p.backoff(1, 0), Duration::ZERO);
        assert_eq!(p.backoff(3, 9), Duration::ZERO);
    }

    /// A policy that never sleeps, so the loop tests need no clock.
    fn instant(retries: u32) -> RetryPolicy {
        RetryPolicy::retries(retries).with_base_backoff(Duration::ZERO)
    }

    #[test]
    fn success_after_panics_counts_every_attempt() {
        let p = instant(5);
        let mut quarantined = 0;
        let out = p.run_isolated(
            p.max_attempts(),
            0,
            |n| {
                assert!(n <= 3, "no attempt after the success");
                if n < 3 {
                    panic!("attempt {n} dies");
                }
                Attempt::<_, ()>::Done(n * 10)
            },
            || quarantined += 1,
        );
        assert_eq!(out, Retried::Done(30, 3));
        assert_eq!(quarantined, 2, "one quarantine per panic");
    }

    #[test]
    fn stop_ends_the_loop_at_once() {
        let p = instant(5);
        let mut tries = 0;
        let out = p.run_isolated(
            p.max_attempts(),
            0,
            |n| {
                tries += 1;
                if n == 1 {
                    Attempt::<(), _>::Retry("transient")
                } else {
                    Attempt::Stop("cancelled")
                }
            },
            || unreachable!("nothing panicked"),
        );
        assert_eq!(out, Retried::Stopped("cancelled"));
        assert_eq!(tries, 2);
    }

    #[test]
    fn exhaustion_keeps_the_last_typed_error_or_the_panic_count() {
        let p = instant(2);
        let out = p.run_isolated(
            p.max_attempts(),
            0,
            |n| {
                if n == 1 {
                    panic!("first attempt dies");
                }
                Attempt::<(), _>::Retry(n)
            },
            || {},
        );
        assert_eq!(out, Retried::Exhausted(Some(3), 1));
        let mut quarantined = 0;
        let out = p.run_isolated(
            p.max_attempts(),
            0,
            |n| -> Attempt<(), ()> { panic!("attempt {n} dies") },
            || quarantined += 1,
        );
        assert_eq!(out, Retried::Exhausted(None, 3));
        assert_eq!(quarantined, 3);
    }

    #[test]
    fn huge_attempt_saturates_at_max_backoff() {
        let p = RetryPolicy::retries(u32::MAX);
        let d = p.backoff(1_000_000, 0);
        assert!(d <= MAX_BACKOFF);
        assert!(d >= MAX_BACKOFF / 2);
    }
}
