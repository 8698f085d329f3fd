//! Client-side poll faults: a seeded [`lqs_server::PollFaultInjector`].

use lqs_server::{PollFaultInjector, SessionId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fails each `(session, round)` poll independently with a fixed
/// probability. The decision is a pure hash of `(seed, session, round)` —
/// no shared RNG stream — so it is identical regardless of the order the
/// poller visits sessions in.
#[derive(Debug, Clone)]
pub struct SeededPollFault {
    seed: u64,
    fail_p: f64,
}

impl SeededPollFault {
    /// Fail with probability `fail_p`, decided by `seed`.
    pub(crate) fn new(seed: u64, fail_p: f64) -> Self {
        SeededPollFault { seed, fail_p }
    }
}

impl PollFaultInjector for SeededPollFault {
    fn poll_fails(&self, session: SessionId, round: u64) -> bool {
        if self.fail_p <= 0.0 {
            return false;
        }
        let key = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ session.0.wrapping_mul(0xd1b5_4a32_d192_ed03)
            ^ round.wrapping_mul(0xff51_afd7_ed55_8ccd);
        SmallRng::seed_from_u64(key).gen_bool(self.fail_p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_order_independent_and_deterministic() {
        let f = SeededPollFault::new(42, 0.5);
        let forward: Vec<bool> = (0..64).map(|r| f.poll_fails(SessionId(3), r)).collect();
        let backward: Vec<bool> = (0..64)
            .rev()
            .map(|r| f.poll_fails(SessionId(3), r))
            .rev()
            .collect();
        assert_eq!(forward, backward);
        assert!(forward.iter().any(|&b| b));
        assert!(forward.iter().any(|&b| !b));
    }

    #[test]
    fn zero_probability_never_fails() {
        let f = SeededPollFault::new(42, 0.0);
        assert!((0..100).all(|r| !f.poll_fails(SessionId(0), r)));
    }

    #[test]
    fn different_sessions_fail_on_different_rounds() {
        let f = SeededPollFault::new(7, 0.4);
        let a: Vec<bool> = (0..64).map(|r| f.poll_fails(SessionId(1), r)).collect();
        let b: Vec<bool> = (0..64).map(|r| f.poll_fails(SessionId(2), r)).collect();
        assert_ne!(a, b);
    }
}
