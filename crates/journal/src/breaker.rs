//! Journal circuit breaker: fail fast on a dead disk instead of letting
//! every publish pay an I/O error on the executor path.
//!
//! The breaker is shared by every [`crate::SessionJournal`] of one
//! [`crate::Journal`]: journal write/fsync failures are a property of the
//! directory's backing device, not of one session. It follows the classic
//! three-state protocol:
//!
//! * **Closed** — writes flow to disk. `trip_after` *consecutive* failures
//!   trip it open (one success resets the streak).
//! * **Open** — appends are suppressed without touching the disk; the
//!   affected sessions keep publishing in memory only (`durable: false`).
//!   After `probe_after` has elapsed, exactly one append is admitted as a
//!   half-open probe.
//! * **Half-open** — the probe append is in flight. Success closes the
//!   breaker (journaling re-attaches); failure re-opens it and restarts
//!   the probe timer. Concurrent appends during the probe stay suppressed.
//!
//! Setting `probe_after` to [`Duration::ZERO`] makes every transition a
//! pure function of the append/outcome sequence — the deterministic mode
//! the chaos soaks rely on for byte-for-byte reproducible summaries.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs of one [`CircuitBreaker`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive write/fsync failures that trip the breaker open.
    pub trip_after: u32,
    /// How long the breaker stays open before admitting one half-open
    /// probe. [`Duration::ZERO`] probes on the very next append
    /// (deterministic; used by the chaos soaks).
    pub probe_after: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_after: 3,
            probe_after: Duration::from_millis(250),
        }
    }
}

/// Where the breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Writes flow to disk.
    Closed,
    /// Writes are suppressed; waiting to probe.
    Open,
    /// One probe append is in flight.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label (metric/JSON value).
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    fn to_tag(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    fn from_tag(tag: u8) -> Self {
        match tag {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }
}

/// What [`CircuitBreaker::admit`] decided for one append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAdmit {
    /// Breaker closed: perform the write normally.
    Write,
    /// Breaker half-open: perform the write as the recovery probe.
    Probe,
    /// Breaker open: skip the disk entirely; the record is lost.
    Suppress,
}

/// State transition reported by [`CircuitBreaker::record_outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// No transition.
    None,
    /// Closed → Open: the consecutive-failure threshold was reached.
    Tripped,
    /// Half-open → Closed: the probe succeeded; journaling re-attaches.
    Recovered,
    /// Half-open → Open: the probe failed; back to suppressing.
    Reopened,
}

struct BreakerInner {
    consecutive_failures: u32,
    /// When the breaker last entered `Open` (or re-opened).
    opened_at: Option<Instant>,
    /// A half-open probe has been admitted and not yet resolved.
    probe_in_flight: bool,
}

/// Shared, thread-safe journal circuit breaker. See the module docs for
/// the protocol.
pub struct CircuitBreaker {
    config: BreakerConfig,
    /// Each transition stores whole field values and nothing between two
    /// stores can unwind, so lockers recover a poisoned guard.
    inner: Mutex<BreakerInner>,
    /// Mirror of the state for lock-free reads (`/healthz`, pollers).
    state_tag: AtomicU8,
    trips: AtomicU64,
    recoveries: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with `config`.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                consecutive_failures: 0,
                opened_at: None,
                probe_in_flight: false,
            }),
            state_tag: AtomicU8::new(BreakerState::Closed.to_tag()),
            trips: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    /// The breaker's configuration.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Current state (lock-free; may be momentarily stale under races).
    pub fn state(&self) -> BreakerState {
        BreakerState::from_tag(self.state_tag.load(Ordering::Acquire))
    }

    /// Times the breaker has tripped Closed → Open (re-opens after a
    /// failed probe are not counted as new trips).
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Times a half-open probe succeeded and the breaker closed again.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Decide the fate of one append. Every call must be paired with a
    /// [`record_outcome`](Self::record_outcome) unless it returned
    /// [`WriteAdmit::Suppress`].
    pub fn admit(&self) -> WriteAdmit {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match self.state() {
            BreakerState::Closed => WriteAdmit::Write,
            BreakerState::HalfOpen => WriteAdmit::Suppress,
            BreakerState::Open => {
                let due = match inner.opened_at {
                    Some(at) => at.elapsed() >= self.config.probe_after,
                    None => true,
                };
                if due && !inner.probe_in_flight {
                    inner.probe_in_flight = true;
                    self.set_state(BreakerState::HalfOpen);
                    WriteAdmit::Probe
                } else {
                    WriteAdmit::Suppress
                }
            }
        }
    }

    /// Report how an admitted append went. Returns the state transition,
    /// if any, so the caller can log/count it exactly once.
    pub fn record_outcome(&self, admit: WriteAdmit, ok: bool) -> BreakerEvent {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match admit {
            WriteAdmit::Suppress => BreakerEvent::None,
            WriteAdmit::Probe => {
                inner.probe_in_flight = false;
                if ok {
                    inner.consecutive_failures = 0;
                    inner.opened_at = None;
                    self.set_state(BreakerState::Closed);
                    self.recoveries.fetch_add(1, Ordering::Relaxed);
                    BreakerEvent::Recovered
                } else {
                    inner.opened_at = Some(Instant::now());
                    self.set_state(BreakerState::Open);
                    BreakerEvent::Reopened
                }
            }
            WriteAdmit::Write => {
                if ok {
                    inner.consecutive_failures = 0;
                    BreakerEvent::None
                } else {
                    inner.consecutive_failures += 1;
                    if self.state() == BreakerState::Closed
                        && inner.consecutive_failures >= self.config.trip_after.max(1)
                    {
                        inner.opened_at = Some(Instant::now());
                        self.set_state(BreakerState::Open);
                        self.trips.fetch_add(1, Ordering::Relaxed);
                        BreakerEvent::Tripped
                    } else {
                        BreakerEvent::None
                    }
                }
            }
        }
    }

    fn set_state(&self, state: BreakerState) {
        self.state_tag.store(state.to_tag(), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant_probe() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            trip_after: 3,
            probe_after: Duration::ZERO,
        })
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let b = instant_probe();
        // Interleaved success resets the streak.
        assert_eq!(b.record_outcome(b.admit(), false), BreakerEvent::None);
        assert_eq!(b.record_outcome(b.admit(), false), BreakerEvent::None);
        assert_eq!(b.record_outcome(b.admit(), true), BreakerEvent::None);
        assert_eq!(b.record_outcome(b.admit(), false), BreakerEvent::None);
        assert_eq!(b.record_outcome(b.admit(), false), BreakerEvent::None);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.record_outcome(b.admit(), false), BreakerEvent::Tripped);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn full_open_half_open_closed_cycle() {
        let b = instant_probe();
        for _ in 0..3 {
            b.record_outcome(b.admit(), false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Zero probe delay: the next append is the probe.
        let admit = b.admit();
        assert_eq!(admit, WriteAdmit::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Concurrent appends during the probe stay suppressed.
        assert_eq!(b.admit(), WriteAdmit::Suppress);
        // Failed probe re-opens without counting a new trip.
        assert_eq!(b.record_outcome(admit, false), BreakerEvent::Reopened);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // Successful probe closes and counts a recovery.
        let admit = b.admit();
        assert_eq!(admit, WriteAdmit::Probe);
        assert_eq!(b.record_outcome(admit, true), BreakerEvent::Recovered);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries(), 1);
        assert_eq!(b.admit(), WriteAdmit::Write);
    }

    /// A panic under the breaker's lock must not turn every later journal
    /// append into a panic on the executor path.
    #[test]
    fn a_poisoned_breaker_still_answers() {
        let b = instant_probe();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = b.inner.lock().unwrap();
                panic!("poison the breaker");
            })
            .join()
        });
        assert!(panicked.is_err() && b.inner.is_poisoned());

        for _ in 0..3 {
            b.record_outcome(b.admit(), false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let probe = b.admit();
        assert_eq!(probe, WriteAdmit::Probe);
        assert_eq!(b.record_outcome(probe, true), BreakerEvent::Recovered);
        assert_eq!(b.admit(), WriteAdmit::Write);
    }

    #[test]
    fn open_with_long_probe_delay_suppresses() {
        let b = CircuitBreaker::new(BreakerConfig {
            trip_after: 1,
            probe_after: Duration::from_secs(3600),
        });
        assert_eq!(b.record_outcome(b.admit(), false), BreakerEvent::Tripped);
        assert_eq!(b.admit(), WriteAdmit::Suppress);
        assert_eq!(b.admit(), WriteAdmit::Suppress);
        assert_eq!(b.state(), BreakerState::Open);
    }
}
