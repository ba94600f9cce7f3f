//! The workspace's single audited wall-clock module.
//!
//! The determinism contract (`DESIGN.md` §9, `no-wall-clock`) bans
//! `Instant`/`SystemTime` from metered code: round and bit counters are the
//! only time source an algorithm may observe. Real sockets still need
//! *liveness* timeouts — an accept or read that never completes must surface
//! as a typed error instead of hanging — and those timeouts are pure fault
//! detection: they never feed metered state, influence a coloring, or appear
//! in a report row. This module is where that one legitimate wall-clock use
//! lives, so the lint rule can exempt exactly this file and every
//! socket consumer — [`crate::transport::TcpTransport`], the `dcl_service`
//! server and client — shares one audited implementation instead of carrying
//! per-site waivers.
//!
//! # Examples
//!
//! ```
//! use dcl_sim::deadline::{park_tick, Deadline};
//! use std::time::Duration;
//!
//! let deadline = Deadline::after(Duration::from_millis(50));
//! while !deadline.expired() {
//!     // poll a non-blocking resource …
//!     park_tick();
//! }
//! assert!(deadline.expired());
//! ```

use std::time::Duration;
use std::time::Instant;

/// A monotonic liveness deadline: "give up after this much time".
///
/// Wraps the one `Instant` read the workspace's socket paths are allowed;
/// everything else observes time only through [`Deadline::expired`] /
/// [`Deadline::remaining`], which cannot leak into metered state (they
/// gate error returns, never data).
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    /// `None` = never expires (a `timeout` too large to represent as an
    /// `Instant`, e.g. `--timeout-ms u64::MAX`).
    end: Option<Instant>,
}

impl Deadline {
    /// A deadline expiring `timeout` from now. A zero `timeout` is already
    /// expired — the deterministic always-times-out configuration the
    /// service tests use. A `timeout` that overflows `Instant` saturates
    /// to "never expires" instead of panicking.
    #[must_use]
    pub fn after(timeout: Duration) -> Self {
        Deadline {
            end: Instant::now().checked_add(timeout),
        }
    }

    /// Whether the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.end.is_some_and(|end| Instant::now() >= end)
    }

    /// Time left before expiry (zero once expired, [`Duration::MAX`] for a
    /// never-expiring deadline).
    #[must_use]
    pub fn remaining(&self) -> Duration {
        match self.end {
            Some(end) => end.saturating_duration_since(Instant::now()),
            None => Duration::MAX,
        }
    }
}

/// One scheduling tick of a polling loop: sleeps 1 ms, long enough to yield
/// the core, short enough that accept/shutdown latency stays invisible.
/// Every busy-wait in the socket paths parks through this one function so
/// the polling granularity is a single auditable constant.
pub fn park_tick() {
    std::thread::sleep(Duration::from_millis(1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_timeout_is_already_expired() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn generous_timeout_is_not_expired_and_ticks_do_not_expire_it() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        park_tick();
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3000));
    }

    #[test]
    fn overflowing_timeout_saturates_to_never_expires() {
        // `--timeout-ms u64::MAX` must not panic at admission: the sum
        // overflows `Instant`, which means "never expires".
        let d = Deadline::after(Duration::MAX);
        assert!(!d.expired());
        assert_eq!(d.remaining(), Duration::MAX);
    }

    #[test]
    fn deadline_expires_after_its_timeout() {
        let d = Deadline::after(Duration::from_millis(2));
        while !d.expired() {
            park_tick();
        }
        assert!(d.expired());
    }
}
