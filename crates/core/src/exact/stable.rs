//! The stable (always-correct) variant of `CountExact` — Appendix F of the paper.
//!
//! Like the stable `Approximate`, the stable exact counter is a hybrid: protocol
//! `CountExact` runs alongside the always-correct exact backup protocol of
//! Appendix C.2, and a set of error checks decides which of the two results the
//! agents output:
//!
//! * two agents that both concluded `FastLeaderElection` as leaders raise an error
//!   when they meet;
//! * agents whose phase counters have drifted apart raise an error;
//! * an agent that is about to perform the refinement stage's multiplication with
//!   fewer than `2⁵ − 1` units of load raises an error (the total load would be too
//!   small for the output computation of Lemma 11);
//! * two refinement-stage agents holding different approximations `k` raise an
//!   error;
//! * two agents whose refined loads differ by more than the balancing discrepancy
//!   bound raise an error.
//!
//! The error flag spreads by one-way epidemics; agents that have seen it output the
//! backup count, which converges to the exact `n` with probability 1.

use rand::rngs::SmallRng;

use ppsim::Protocol;

use crate::backup::{exact_backup_interact, ExactBackupState};
use crate::params::CountExactParams;

use super::count_exact::{CountExact, CountExactAgent};

/// Minimum load an agent must hold before the refinement multiplication
/// (`2⁵ − 1`; Appendix F uses `2⁵` minus the balancing error).
pub const MIN_REFINEMENT_LOAD: u64 = 31;

/// Per-agent state of the stable `CountExact` protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StableCountExactAgent {
    /// The state of the fast protocol.
    pub fast: CountExactAgent,
    /// The always-correct exact backup protocol (Appendix C.2).
    pub backup: ExactBackupState,
    /// Whether this agent has seen the error flag.
    pub error: bool,
}

impl StableCountExactAgent {
    /// The common initial state.
    #[must_use]
    pub fn new() -> Self {
        StableCountExactAgent::default()
    }
}

/// The stable `CountExact` protocol (Algorithm 3 + Appendix F error detection +
/// Appendix C.2 backup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableCountExact {
    fast: CountExact,
}

impl StableCountExact {
    /// Create the protocol from the parameters of the underlying fast protocol.
    #[must_use]
    pub fn new(params: CountExactParams) -> Self {
        StableCountExact {
            fast: CountExact::new(params),
        }
    }

    /// The underlying fast protocol.
    #[must_use]
    pub fn fast(&self) -> &CountExact {
        &self.fast
    }

    /// The count this agent currently outputs: the fast protocol's result when it
    /// is available and unchallenged, the backup count otherwise.
    #[must_use]
    pub fn agent_output(&self, agent: &StableCountExactAgent) -> u64 {
        if !agent.error {
            if let Some(count) = self.fast.agent_output(&agent.fast) {
                return count;
            }
        }
        agent.backup.count
    }
}

impl Default for StableCountExact {
    fn default() -> Self {
        Self::new(CountExactParams::default())
    }
}

impl Protocol for StableCountExact {
    type State = StableCountExactAgent;
    type Output = u64;

    fn initial_state(&self) -> StableCountExactAgent {
        StableCountExactAgent::new()
    }

    fn interact(
        &self,
        initiator: &mut StableCountExactAgent,
        responder: &mut StableCountExactAgent,
        _rng: &mut SmallRng,
    ) {
        // The slow backup protocol runs in parallel throughout.
        exact_backup_interact(&mut initiator.backup, &mut responder.backup);

        // Error source 3: an agent about to multiply with too little load.  The
        // check is performed before the fast protocol acts so that the offending
        // multiplication is flagged in the same interaction.
        let u = &initiator.fast;
        if u.inner.stage.apx_done
            && !u.inner.stage.multiplied
            && u.sync.clock.first_tick
            && u.sync.clock.phase.saturating_sub(u.inner.stage.start_phase) == 2
            && u.inner.stage.l < MIN_REFINEMENT_LOAD
        {
            initiator.error = true;
        }

        // Error source 4: refinement-stage agents holding different approximations.
        if initiator.fast.inner.stage.apx_done
            && responder.fast.inner.stage.apx_done
            && initiator.fast.inner.stage.k != responder.fast.inner.stage.k
        {
            initiator.error = true;
            responder.error = true;
        }

        // The fast protocol (Algorithm 3) itself.
        self.fast
            .composition()
            .interact_pair(&mut initiator.fast, &mut responder.fast);

        // Error source 1: two finished leaders meet.
        if initiator.fast.inner.election.done
            && responder.fast.inner.election.done
            && initiator.fast.inner.election.contender
            && responder.fast.inner.election.contender
        {
            initiator.error = true;
            responder.error = true;
        }

        // Error source 2: phase counters drifted apart (both past leader election).
        if initiator.fast.inner.election.done
            && responder.fast.inner.election.done
            && initiator
                .fast
                .sync
                .clock
                .phase
                .abs_diff(responder.fast.sync.clock.phase)
                > 1
        {
            initiator.error = true;
            responder.error = true;
        }

        // The error flag spreads by one-way epidemics.
        if initiator.error || responder.error {
            initiator.error = true;
            responder.error = true;
        }
    }

    fn output(&self, state: &StableCountExactAgent) -> u64 {
        self.agent_output(state)
    }

    fn name(&self) -> &'static str {
        "count-exact-stable"
    }
}

/// Convergence predicate for a population of size `n`: every agent outputs `n`.
#[must_use]
pub fn all_exact(protocol: &StableCountExact, states: &[StableCountExactAgent], n: usize) -> bool {
    states.iter().all(|a| protocol.agent_output(a) == n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::Simulator;

    #[test]
    fn output_prefers_the_fast_result_and_falls_back_on_error() {
        let proto = StableCountExact::default();
        let mut a = StableCountExactAgent::new();
        a.backup.count = 7;
        assert_eq!(proto.agent_output(&a), 7, "no fast result yet");

        a.fast.inner.stage.apx_done = true;
        a.fast.inner.stage.multiplied = true;
        a.fast.inner.stage.k = 10;
        a.fast.inner.stage.l = 256 * (1 << 20) / 1000;
        let fast = proto.fast().agent_output(&a.fast).unwrap();
        assert_eq!(proto.agent_output(&a), fast);

        a.error = true;
        assert_eq!(proto.agent_output(&a), 7);
    }

    #[test]
    fn differing_refinement_approximations_raise_an_error() {
        let proto = StableCountExact::default();
        let mut rng = ppsim::seeded_rng(0);
        let mut u = StableCountExactAgent::new();
        let mut v = StableCountExactAgent::new();
        for agent in [&mut u, &mut v] {
            agent.fast.sync.junta.active = false;
            agent.fast.inner.election.done = true;
            agent.fast.inner.election.contender = false;
            agent.fast.inner.stage.apx_done = true;
        }
        u.fast.inner.stage.k = 9;
        v.fast.inner.stage.k = 11;
        proto.interact(&mut u, &mut v, &mut rng);
        assert!(u.error && v.error);
    }

    #[test]
    fn stable_count_exact_outputs_n() {
        let n = 250usize;
        let proto = StableCountExact::default();
        let mut sim = Simulator::new(proto, n, 321).unwrap();
        let outcome = sim.run_until(
            move |s| all_exact(s.protocol(), s.states(), n),
            (n * 50) as u64,
            120_000_000,
        );
        assert!(
            outcome.converged(),
            "stable CountExact did not converge to n = {n}"
        );
    }

    #[test]
    fn injected_error_switches_everyone_to_the_backup() {
        let n = 150usize;
        let proto = StableCountExact::default();
        let mut sim = Simulator::new(proto, n, 13).unwrap();
        sim.states_mut()[0].error = true;
        let outcome = sim.run_until(
            move |s| {
                s.states()
                    .iter()
                    .all(|a| a.error && a.backup.count == n as u64)
            },
            (n * n / 8) as u64,
            2_000_000_000,
        );
        assert!(outcome.converged(), "the exact backup did not take over");
        assert!(sim.outputs().iter().all(|&o| o == n as u64));
    }
}
