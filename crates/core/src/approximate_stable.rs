//! The stable (always-correct) variant of `Approximate` — Theorem 1.2/1.3 and
//! Appendix B of the paper.
//!
//! The stable protocol is a *hybrid*: it runs protocol `Approximate` and, in
//! parallel, the slow but always-correct backup protocol of Appendix C.1.  The
//! broadcasting stage of `Approximate` is replaced by the error-detection stage
//! (Algorithm 7), which validates the leader's estimate by re-balancing
//! `2^{k−2}` tokens.  Any detected inconsistency — several agents finishing the
//! leader election as leaders, drifting phase counters, an over- or under-loaded
//! balancing experiment — raises an error flag that spreads by one-way epidemics;
//! agents that have seen the error flag output the backup protocol's result
//! instead, which converges to `⌊log₂ n⌋` with probability 1.
//!
//! Implementation note: the paper pauses the backup protocol once `leaderDone` is
//! raised and restarts a fresh instance on error, which saves a constant factor of
//! states.  This implementation keeps the backup running throughout, which is
//! simpler, has the same asymptotic state bound of Theorem 1.2
//! (`O(log² n · log log n)`), and only strengthens stability.

use rand::rngs::SmallRng;

use ppsim::Protocol;

use crate::approximate::{Approximate, ApproximateAgent};
use crate::backup::{approximate_backup_interact, ApproximateBackupState};
use crate::error_detection::{
    error_detection_interact, ErrorDetectionContext, ErrorDetectionState, ERROR_DETECTION_PHASES,
};
use crate::params::ApproximateParams;

/// Per-agent state of the stable `Approximate` protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StableApproximateAgent {
    /// The state of the fast protocol (junta, clock, election, search).
    pub fast: ApproximateAgent,
    /// Error-detection bookkeeping.
    pub ed: ErrorDetectionState,
    /// The always-correct backup protocol (Appendix C.1), running in parallel.
    pub backup: ApproximateBackupState,
    /// Whether this agent has seen the error flag.
    pub error: bool,
}

impl StableApproximateAgent {
    /// The common initial state.
    #[must_use]
    pub fn new() -> Self {
        StableApproximateAgent::default()
    }

    /// The estimate of `log₂ n` this agent currently outputs.
    ///
    /// Until the fast protocol has produced a *validated* result, and whenever an
    /// error has been detected, the output falls back to the backup protocol.
    #[must_use]
    pub fn estimate(&self, clock_phase: u32) -> i32 {
        if !self.error
            && self.ed.entered
            && self.ed.relative_phase(clock_phase) >= ERROR_DETECTION_PHASES - 1
        {
            self.fast.inner.search.k
        } else {
            self.backup.k_max
        }
    }

    /// Whether the agent's current output comes from the validated fast protocol
    /// (`true`) or from the backup (`false`).
    #[must_use]
    pub fn uses_fast_path(&self) -> bool {
        !self.error
            && self.ed.entered
            && self.ed.relative_phase(self.fast.sync.clock.phase) >= ERROR_DETECTION_PHASES - 1
    }
}

/// The stable `Approximate` protocol (Algorithm 2 + Algorithm 6/7 + Appendix C.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableApproximate {
    fast: Approximate,
}

impl StableApproximate {
    /// Create the protocol from the parameters of the underlying fast protocol.
    #[must_use]
    pub fn new(params: ApproximateParams) -> Self {
        StableApproximate {
            fast: Approximate::new(params),
        }
    }

    /// The underlying fast protocol.
    #[must_use]
    pub fn fast(&self) -> &Approximate {
        &self.fast
    }
}

impl Default for StableApproximate {
    fn default() -> Self {
        Self::new(ApproximateParams::default())
    }
}

impl Protocol for StableApproximate {
    type State = StableApproximateAgent;
    type Output = i32;

    fn initial_state(&self) -> StableApproximateAgent {
        StableApproximateAgent::new()
    }

    fn interact(
        &self,
        initiator: &mut StableApproximateAgent,
        responder: &mut StableApproximateAgent,
        _rng: &mut SmallRng,
    ) {
        // The slow backup protocol runs in parallel throughout.
        approximate_backup_interact(&mut initiator.backup, &mut responder.backup);

        // Stages 1 and 2 of Algorithm 2 (with re-initialisation and clocks).
        let pass = self
            .fast
            .dispatch_stages_1_2(&mut initiator.fast, &mut responder.fast);
        if pass.u_reset {
            initiator.ed = ErrorDetectionState::new();
        }
        if pass.v_reset {
            responder.ed = ErrorDetectionState::new();
        }

        // Error source 1: two agents that both finished the leader election as
        // leaders detect the collision when they meet.
        if initiator.fast.inner.election.done
            && responder.fast.inner.election.done
            && initiator.fast.inner.election.contender
            && responder.fast.inner.election.contender
        {
            initiator.error = true;
            responder.error = true;
        }

        // Stage 3 is the error-detection stage instead of plain broadcasting.
        if pass.stage3 {
            if !initiator.ed.entered {
                // The initiator (the leader, or an agent converted by the stage)
                // enters error detection in the phase in which its search concluded.
                initiator.ed.entered = true;
                initiator.ed.start_phase = initiator.fast.sync.clock.phase;
            }
            let ctx = ErrorDetectionContext {
                u_leader: initiator.fast.inner.election.contender,
                v_leader: responder.fast.inner.election.contender,
                u_first_tick: pass.u_first_tick,
                u_phase: initiator.fast.sync.clock.phase,
                v_phase: responder.fast.sync.clock.phase,
            };
            error_detection_interact(
                &mut initiator.fast.inner.search,
                &mut initiator.ed,
                &mut responder.fast.inner.search,
                &mut responder.ed,
                &ctx,
            );
            if initiator.ed.error || responder.ed.error {
                initiator.error = true;
                responder.error = true;
            }
        }

        // The error flag spreads by one-way epidemics.
        if initiator.error || responder.error {
            initiator.error = true;
            responder.error = true;
        }

        initiator.fast.sync.clock.first_tick = false;
    }

    fn output(&self, state: &StableApproximateAgent) -> i32 {
        state.estimate(state.fast.sync.clock.phase)
    }

    fn name(&self) -> &'static str {
        "approximate-stable"
    }
}

/// Convergence predicate for a population of size `n`: every agent outputs
/// `⌊log₂ n⌋` or `⌈log₂ n⌉`.
#[must_use]
pub fn all_estimates_valid(
    protocol: &StableApproximate,
    states: &[StableApproximateAgent],
    n: usize,
) -> bool {
    let floor = (n as f64).log2().floor() as i32;
    let ceil = (n as f64).log2().ceil() as i32;
    states.iter().all(|a| {
        let o = protocol.output(a);
        o == floor || o == ceil
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::Simulator;

    #[test]
    fn output_falls_back_to_backup_before_validation_and_on_error() {
        let mut a = StableApproximateAgent::new();
        a.backup.k_max = 5;
        a.fast.inner.search.k = 9;
        assert_eq!(a.estimate(0), 5, "no validated fast result yet");

        a.ed.entered = true;
        a.ed.start_phase = 0;
        assert_eq!(a.estimate(20), 9, "validated fast result is used");

        a.error = true;
        assert_eq!(a.estimate(20), 5, "errors always defer to the backup");
    }

    #[test]
    fn colliding_leaders_raise_the_error_flag() {
        let proto = StableApproximate::default();
        let mut rng = ppsim::seeded_rng(0);
        let mut u = StableApproximateAgent::new();
        let mut v = StableApproximateAgent::new();
        for agent in [&mut u, &mut v] {
            agent.fast.sync.junta.active = false;
            agent.fast.inner.election.done = true;
            agent.fast.inner.election.contender = true;
        }
        proto.interact(&mut u, &mut v, &mut rng);
        assert!(u.error && v.error);
    }

    #[test]
    fn stable_approximate_converges_to_a_valid_estimate() {
        let n = 300usize;
        let proto = StableApproximate::default();
        let mut sim = Simulator::new(proto, n, 2025).unwrap();
        let outcome = sim.run_until(
            move |s| all_estimates_valid(s.protocol(), s.states(), n),
            (n * 50) as u64,
            120_000_000,
        );
        assert!(outcome.converged(), "stable Approximate did not converge");
        // At this population size the fast path should normally validate cleanly.
        let errors = sim.states().iter().filter(|a| a.error).count();
        assert!(
            errors == 0 || errors == n,
            "the error flag must be all-or-nothing once spread, found {errors}"
        );
    }

    #[test]
    fn injected_error_forces_the_backup_result_everywhere() {
        let n = 200usize;
        let proto = StableApproximate::default();
        let mut sim = Simulator::new(proto, n, 7).unwrap();
        // Adversarially corrupt the system: flip an error flag by hand.
        sim.states_mut()[0].error = true;
        let outcome = sim.run_until(
            move |s| {
                s.states().iter().all(|a| a.error)
                    && s.states()
                        .iter()
                        .all(|a| a.backup.k_max == (n as f64).log2().floor() as i32)
            },
            (n * n / 8) as u64,
            2_000_000_000,
        );
        assert!(
            outcome.converged(),
            "the backup did not take over after an injected error"
        );
        let floor = (n as f64).log2().floor() as i32;
        assert!(sim.states().iter().all(|a| {
            let p = StableApproximate::default();
            p.output(a) == floor
        }));
    }
}
