//! Convergence and stabilisation bookkeeping.
//!
//! The paper distinguishes the *convergence time* `T_C` (first interaction after
//! which the system is in a desired configuration and never leaves the set of desired
//! configurations again) from the *stabilisation time* `T_S` (first interaction after
//! which **no** interaction sequence can leave the desired set).  A simulation can
//! measure `T_C` directly (first hit of a monotone predicate, or first hit that holds
//! until the end of a long run) and can probe `T_S` by exhaustively applying all
//! ordered pairs from the reached configuration (see
//! [`AllPairsScheduler`](crate::scheduler::AllPairsScheduler)).

/// The result of driving a simulation towards a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum RunOutcome {
    /// The predicate held at the recorded interaction count.
    Converged {
        /// Number of interactions executed when the predicate was first observed
        /// to hold (measured at the configured check granularity).
        interactions: u64,
    },
    /// The interaction budget was exhausted before the predicate held.
    Exhausted {
        /// The number of interactions the simulator had **actually executed**
        /// when the run gave up.  Usually equal to `budget`, but a simulator
        /// that had already executed interactions before `run_until` was
        /// called (a staged or hybrid run resuming against a total budget)
        /// reports its true counter here instead of pretending the whole
        /// budget was spent.
        interactions: u64,
        /// The interaction budget that was exhausted.
        budget: u64,
    },
}

impl RunOutcome {
    /// Whether the run converged within its budget.
    #[must_use]
    pub fn converged(&self) -> bool {
        matches!(self, RunOutcome::Converged { .. })
    }

    /// The number of interactions at convergence, if the run converged.
    #[must_use]
    pub fn interactions(&self) -> Option<u64> {
        match self {
            RunOutcome::Converged { interactions } => Some(*interactions),
            RunOutcome::Exhausted { .. } => None,
        }
    }

    /// The number of interactions actually executed when the run ended,
    /// whether it converged or exhausted its budget.
    #[must_use]
    pub fn executed(&self) -> u64 {
        match self {
            RunOutcome::Converged { interactions } | RunOutcome::Exhausted { interactions, .. } => {
                *interactions
            }
        }
    }

    /// The number of interactions at convergence.
    ///
    /// # Panics
    ///
    /// Panics if the run did not converge; use in tests and experiments where
    /// non-convergence is itself a failure.
    #[must_use]
    pub fn expect_converged(&self, context: &str) -> u64 {
        match self {
            RunOutcome::Converged { interactions } => *interactions,
            RunOutcome::Exhausted {
                interactions,
                budget,
            } => {
                panic!(
                    "{context}: did not converge within a budget of {budget} interactions \
                     ({interactions} executed)"
                )
            }
        }
    }
}

/// The absolute-chunk loop behind every engine's `run_until`: probe once
/// before the first step, then run
/// `min(check_every, max_interactions − interactions)` and probe again,
/// until the probe holds or `max_interactions` *total* interactions have
/// been executed.
///
/// Chunks end at absolute interaction counts, so a run restored from a
/// checkpoint taken at a probe boundary issues exactly the chunk sequence
/// the uninterrupted run would have issued from there — checkpoint replay
/// relies on this loop being the same for every engine.
pub(crate) fn run_until<S: ?Sized>(
    sim: &mut S,
    interactions: impl Fn(&S) -> u64,
    mut run: impl FnMut(&mut S, u64),
    mut probe: impl FnMut(&S) -> bool,
    check_every: u64,
    max_interactions: u64,
) -> RunOutcome {
    let check_every = check_every.max(1);
    loop {
        if probe(sim) {
            return RunOutcome::Converged {
                interactions: interactions(sim),
            };
        }
        let done = interactions(sim);
        if done >= max_interactions {
            return RunOutcome::Exhausted {
                interactions: done,
                budget: max_interactions,
            };
        }
        let chunk = check_every.min(max_interactions - done);
        run(sim, chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_accessors() {
        let o = RunOutcome::Converged { interactions: 1234 };
        assert!(o.converged());
        assert_eq!(o.interactions(), Some(1234));
        assert_eq!(o.executed(), 1234);
        assert_eq!(o.expect_converged("test"), 1234);
    }

    #[test]
    fn exhausted_accessors() {
        let o = RunOutcome::Exhausted {
            interactions: 9,
            budget: 10,
        };
        assert!(!o.converged());
        assert_eq!(o.interactions(), None);
        assert_eq!(
            o.executed(),
            9,
            "exhaustion reports actual work, not the budget"
        );
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn expect_converged_panics_on_exhaustion() {
        let _ = RunOutcome::Exhausted {
            interactions: 10,
            budget: 10,
        }
        .expect_converged("test");
    }
}
