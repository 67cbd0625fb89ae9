//! The [`DenseProtocol`] trait: protocols over an enumerated state space.
//!
//! The sequential [`Simulator`](crate::Simulator) works with arbitrary
//! `Protocol::State` types held in a per-agent `Vec`.  The batched
//! count-based engine ([`BatchedSimulator`](crate::BatchedSimulator)) instead
//! represents a configuration as a multiset — `counts[s]` agents in state `s`
//! — which requires the state space to be enumerable: states are dense
//! indices `0..q` and the transition function is a deterministic map
//! `δ : q × q → q × q`.
//!
//! Determinism is not a restriction for the protocols of the reproduced paper:
//! the probabilistic population model puts all randomness in the *scheduler*,
//! and the paper's protocols draw any random bits they need from the schedule
//! itself (synthetic coins).  Protocols whose transitions consult an RNG
//! cannot be batched with this trait.
//!
//! [`DenseAdapter`] lifts a `DenseProtocol` back into a regular [`Protocol`]
//! so the *same* transition system can be driven by both engines — this is how
//! the distributional-equivalence tests pin the two engines against each
//! other.  It is also the identity [`AgentCodec`]: the per-agent
//! representation of every protocol without a native decoding, in the
//! sequential engine and in the hybrid engine's per-agent stints alike.

use std::fmt::Debug;

use rand::rngs::SmallRng;

use crate::protocol::Protocol;
use crate::stint::AgentCodec;

/// A population protocol over an enumerated state space `0..q` with a
/// deterministic transition function.
///
/// # Examples
///
/// A two-state one-way epidemic, run on the batched count-based engine:
///
/// ```rust
/// use ppsim::{BatchedSimulator, DenseProtocol};
///
/// struct Rumor;
///
/// impl DenseProtocol for Rumor {
///     type Output = bool;
///     fn num_states(&self) -> usize { 2 }
///     fn initial_state(&self) -> usize { 0 }
///     fn transition(&self, u: usize, v: usize) -> (usize, usize) {
///         (u.max(v), v) // the initiator learns the rumour from the responder
///     }
///     fn output(&self, s: usize) -> bool { s == 1 }
/// }
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let mut sim = BatchedSimulator::new(Rumor, 100_000, 7)?;
/// sim.transfer(0, 1, 1)?; // plant the rumour
/// let outcome = sim.run_until(|s| s.count_of(1) == s.population(), 100_000, u64::MAX >> 1);
/// assert!(outcome.converged());
/// # Ok(())
/// # }
/// ```
pub trait DenseProtocol {
    /// The output domain `O` of the output function `ω` (`Send` so that
    /// precomputed output tables can ride along to shard worker threads).
    type Output: Clone + Debug + PartialEq + Send;

    /// The number of states `q`.  State indices are `0..q`.
    fn num_states(&self) -> usize;

    /// The common initial state index `q₀ < q`.
    fn initial_state(&self) -> usize;

    /// The deterministic transition function `δ(initiator, responder)`,
    /// returning the pair of post-interaction state indices.
    ///
    /// Must be a pure function of its arguments: the batched engine applies it
    /// once per *state-pair class* and multiplies, so any hidden dependence on
    /// interaction order or an RNG would change the simulated process.
    fn transition(&self, initiator: usize, responder: usize) -> (usize, usize);

    /// The output function `ω` on state indices.
    fn output(&self, state: usize) -> Self::Output;

    /// A short human-readable protocol name used in reports and error messages.
    fn name(&self) -> &'static str {
        "dense-protocol"
    }

    /// The structural invariants this protocol declares about its own
    /// transition system — conserved quantities (additive in the counts)
    /// and a role-symmetry expectation.
    ///
    /// Declared invariants are probed along trajectories by the scenario
    /// matrix ([`conformance`](crate::conformance)) and checked
    /// *exhaustively* ahead of any run by the `ppcheck` verifier: every
    /// conservation law over every reachable `δ` pair.  The default
    /// declares nothing.
    fn invariants(&self) -> crate::conformance::ProtocolInvariants {
        crate::conformance::ProtocolInvariants::default()
    }

    /// Membership of the protocol's **legitimate set** — the configurations
    /// it claims to converge into and, for silent protocols, never leave.
    ///
    /// `None` (the default) declares no legitimate set; `Some(b)` states
    /// whether the dense configuration `counts` is legitimate.  The
    /// `ppcheck` verifier checks *closure*: no single interaction maps a
    /// legitimate configuration to an illegitimate one (silent stability),
    /// over every legitimate configuration of a small population.
    fn legitimate(&self, counts: &[u64]) -> Option<bool> {
        let _ = counts;
        None
    }

    /// Whether state indices are assigned **dynamically** — interned on first
    /// appearance (see [`StateInterner`](crate::StateInterner)) rather than
    /// fixed by a static encoding.
    ///
    /// For dynamic protocols [`num_states`](Self::num_states) is a capacity,
    /// not a census: most indices have no state behind them yet, and calling
    /// [`transition`](Self::transition) or [`output`](Self::output) on an
    /// unassigned index is an error.  The engines react in two ways:
    ///
    /// * they never precompute per-state tables (transition table, output
    ///   table) eagerly — everything is evaluated lazily on occupied states;
    /// * the sharded engine pins its within-shard phase to a single worker
    ///   thread, so the order in which new states are interned — and with it
    ///   the index assignment and the whole trajectory — stays a pure
    ///   function of the seed instead of the thread schedule.
    fn dynamic(&self) -> bool {
        false
    }

    /// For [`dynamic`](Self::dynamic) (interned) protocols: how many distinct
    /// states have been assigned indices so far — the realised state census,
    /// as opposed to the `num_states()` capacity.
    ///
    /// Static encodings return `None` (every index is live by construction).
    /// The hybrid engine records this census in its switch log and the bench
    /// tooling emits it next to the switch points, so occupancy blow-ups are
    /// attributable to the protocol stage that minted the states.
    fn discovered_states(&self) -> Option<usize> {
        None
    }

    /// Build a **decoded per-agent stint** over this configuration, if the
    /// protocol carries a typed agent-state codec
    /// ([`AgentCodec`]).
    ///
    /// The hybrid engine calls this at every dense → per-agent migration;
    /// `counts` is the configuration to expand and `seed` drives the stint's
    /// schedule RNG.  The default `None` makes the engine fall back to the
    /// same stint over [`DenseAdapter`]'s identity codec, stepping `u32`
    /// indices through [`Self::transition`] (stint kind `"index"`).
    /// Codec-bearing protocols override it in three lines:
    ///
    /// ```rust,ignore
    /// fn agent_stint(&self, counts: &[u64], seed: u64) -> Option<BoxedAgentStint<Self::Output>> {
    ///     Some(DecodedStint::boxed(self.clone(), counts, seed))
    /// }
    /// ```
    fn agent_stint(
        &self,
        counts: &[u64],
        seed: u64,
    ) -> Option<crate::stint::BoxedAgentStint<Self::Output>> {
        let _ = (counts, seed);
        None
    }

    /// Serialize the protocol's own mutable state for a checkpoint
    /// ([`ppsim::snapshot`](crate::snapshot)).
    ///
    /// Static encodings have none — the default returns an empty payload.
    /// Dynamic (interned) protocols override this to persist their
    /// [`StateInterner`](crate::StateInterner) contents: the index ↔ state
    /// assignment is part of the trajectory, so a resumed run must see the
    /// checkpoint's exact assignment (and *only* it — states interned after
    /// the checkpoint must be forgotten on restore).
    fn save_protocol_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore state previously produced by
    /// [`save_protocol_state`](Self::save_protocol_state).
    ///
    /// The default accepts only the empty payload the default save produces.
    ///
    /// # Errors
    ///
    /// [`SimError`](crate::SimError) variants describing a corrupt or
    /// mismatched payload.
    fn restore_protocol_state(&self, bytes: &[u8]) -> Result<(), crate::SimError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(crate::SimError::SnapshotMismatch {
                reason: format!(
                    "protocol `{}` carries no mutable state but the snapshot \
                     holds {} bytes of it",
                    self.name(),
                    bytes.len()
                ),
            })
        }
    }

    /// Rebuild a **decoded per-agent stint** from bytes written by
    /// [`AgentStint::save_stint`](crate::stint::AgentStint::save_stint) —
    /// the restore-side counterpart of [`agent_stint`](Self::agent_stint).
    ///
    /// Protocols that override `agent_stint` must override this too (with
    /// `DecodedStint::restore_boxed(self.clone(), bytes)`), or their hybrid
    /// snapshots taken mid-stint cannot be restored.  The default `None`
    /// signals "this protocol has no codec"; the hybrid engine then reports
    /// a [`SnapshotMismatch`](crate::SimError::SnapshotMismatch).
    fn restore_agent_stint(
        &self,
        bytes: &[u8],
    ) -> Option<Result<crate::stint::BoxedAgentStint<Self::Output>, crate::SimError>> {
        let _ = bytes;
        None
    }
}

/// Blanket implementation so `&P` can be used wherever a dense protocol is
/// expected.
impl<P: DenseProtocol + ?Sized> DenseProtocol for &P {
    type Output = P::Output;

    fn num_states(&self) -> usize {
        (**self).num_states()
    }
    fn initial_state(&self) -> usize {
        (**self).initial_state()
    }
    fn transition(&self, initiator: usize, responder: usize) -> (usize, usize) {
        (**self).transition(initiator, responder)
    }
    fn output(&self, state: usize) -> Self::Output {
        (**self).output(state)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn invariants(&self) -> crate::conformance::ProtocolInvariants {
        (**self).invariants()
    }
    fn legitimate(&self, counts: &[u64]) -> Option<bool> {
        (**self).legitimate(counts)
    }
    fn dynamic(&self) -> bool {
        (**self).dynamic()
    }
    fn discovered_states(&self) -> Option<usize> {
        (**self).discovered_states()
    }
    fn agent_stint(
        &self,
        counts: &[u64],
        seed: u64,
    ) -> Option<crate::stint::BoxedAgentStint<Self::Output>> {
        (**self).agent_stint(counts, seed)
    }
    fn save_protocol_state(&self) -> Vec<u8> {
        (**self).save_protocol_state()
    }
    fn restore_protocol_state(&self, bytes: &[u8]) -> Result<(), crate::SimError> {
        (**self).restore_protocol_state(bytes)
    }
    fn restore_agent_stint(
        &self,
        bytes: &[u8],
    ) -> Option<Result<crate::stint::BoxedAgentStint<Self::Output>, crate::SimError>> {
        (**self).restore_agent_stint(bytes)
    }
}

/// Adapter running a [`DenseProtocol`] on the per-agent engines.
///
/// The agent state is the dense index itself (`u32`), so a
/// `Simulator<DenseAdapter<P>>` executes exactly the same transition system as
/// a `BatchedSimulator<P>` — the two engines then differ only in how they
/// sample the schedule, which is what the equivalence tests exercise.
///
/// The adapter is also a [`DenseProtocol`] (forwarding to `P`) and the
/// identity [`AgentCodec`] over dense indices: the hybrid engine runs its
/// per-agent stints as `DecodedStint<DenseAdapter<P>>` for protocols that do
/// not override [`DenseProtocol::agent_stint`], stepping `u32` indices
/// through [`DenseProtocol::transition`] — for interned protocols, straight
/// through the interner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseAdapter<P>(pub P);

impl<P: DenseProtocol> Protocol for DenseAdapter<P> {
    type State = u32;
    type Output = P::Output;

    fn initial_state(&self) -> u32 {
        // Dense index spaces are bounded well below u32::MAX. ppcheck: allow(no-unwrap)
        u32::try_from(self.0.initial_state()).expect("dense state spaces fit in u32")
    }

    fn interact(&self, initiator: &mut u32, responder: &mut u32, _rng: &mut SmallRng) {
        let (a, b) = self.0.transition(*initiator as usize, *responder as usize);
        *initiator = a as u32;
        *responder = b as u32;
    }

    fn output(&self, state: &u32) -> Self::Output {
        self.0.output(*state as usize)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<P: DenseProtocol> DenseProtocol for DenseAdapter<P> {
    type Output = <P as DenseProtocol>::Output;

    fn num_states(&self) -> usize {
        self.0.num_states()
    }
    fn initial_state(&self) -> usize {
        self.0.initial_state()
    }
    fn transition(&self, initiator: usize, responder: usize) -> (usize, usize) {
        self.0.transition(initiator, responder)
    }
    fn output(&self, state: usize) -> Self::Output {
        self.0.output(state)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn dynamic(&self) -> bool {
        self.0.dynamic()
    }
    fn discovered_states(&self) -> Option<usize> {
        self.0.discovered_states()
    }
}

impl<P: DenseProtocol + Clone + Send + 'static> AgentCodec for DenseAdapter<P> {
    type Native = DenseAdapter<P>;

    fn native(&self) -> Self::Native {
        self.clone()
    }

    fn decode_agent(&self, index: usize) -> u32 {
        // Dense index spaces are bounded well below u32::MAX. ppcheck: allow(no-unwrap)
        u32::try_from(index).expect("dense state spaces fit in u32")
    }

    fn encode_agent(&self, state: &u32) -> usize {
        *state as usize
    }

    fn stint_label(&self) -> &'static str {
        "index"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::simulator::Simulator;

    /// Two-state one-way epidemic on dense indices.
    #[derive(Clone)]
    struct Rumor;

    impl DenseProtocol for Rumor {
        type Output = bool;
        fn num_states(&self) -> usize {
            2
        }
        fn initial_state(&self) -> usize {
            0
        }
        fn transition(&self, initiator: usize, responder: usize) -> (usize, usize) {
            (initiator.max(responder), responder)
        }
        fn output(&self, state: usize) -> bool {
            state == 1
        }
        fn name(&self) -> &'static str {
            "rumor"
        }
    }

    #[test]
    fn adapter_runs_dense_transitions_on_the_sequential_engine() {
        let mut sim = Simulator::new(DenseAdapter(Rumor), 100, 3).unwrap();
        sim.states_mut()[0] = 1;
        let outcome = sim.run_until(|s| s.states().iter().all(|&x| x == 1), 100, 10_000_000);
        assert!(outcome.converged());
        assert!(sim.outputs().iter().all(|&o| o));
    }

    #[test]
    fn reference_delegation_preserves_dense_behaviour() {
        let p = Rumor;
        let r = &p;
        assert_eq!(r.num_states(), 2);
        assert_eq!(r.initial_state(), 0);
        assert_eq!(r.transition(0, 1), (1, 1));
        assert!(r.output(1));
        assert_eq!(r.name(), "rumor");
    }

    #[test]
    fn adapter_interact_applies_delta_in_place() {
        let adapter = DenseAdapter(Rumor);
        // The identity codec: indices round-trip, out-of-range ones refuse.
        for i in 0..2 {
            assert_eq!(adapter.encode_agent(&adapter.decode_agent(i)), i);
        }
        assert_eq!(adapter.try_decode_agent(2), None);
        let mut rng = seeded_rng(0);
        let mut u = 0u32;
        let mut v = 1u32;
        adapter.interact(&mut u, &mut v, &mut rng);
        assert_eq!((u, v), (1, 1));
    }
}
