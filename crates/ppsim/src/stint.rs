//! Typed agent-state codecs and the decoded per-agent stint engine.
//!
//! The hybrid engine ([`HybridSimulator`](crate::HybridSimulator)) migrates a
//! run to per-agent simulation when the count representation degenerates.
//! Through PR 4 that per-agent stint stepped **interned `u32` indices**: every
//! interaction of a dynamic protocol walked decode → interact → re-encode
//! through the [`StateInterner`](crate::StateInterner) (two `RwLock`ed map
//! probes and two SipHash evaluations per interaction), which cost a measured
//! ~40 % of the `CountExact` refinement leg at `n = 10⁵` — exactly the
//! `Θ(n)`-live-loads regime where per-agent simulation carries the run.
//!
//! This module removes the interner from that hot loop:
//!
//! * [`AgentCodec`] is an optional extension of
//!   [`DenseProtocol`]: a bijection
//!   `decode: index → native state` / `encode: state → index` (interning only
//!   on encode) plus a **native protocol** ([`AgentCodec::Native`]) whose
//!   monomorphic [`Protocol::interact`] steps the decoded structs directly.
//! * [`DecodedStint`] is the per-agent engine the hybrid engine runs between
//!   migrations: the sequential engine ([`Simulator`]) over the codec's
//!   native protocol, so its `Vec` of native structs is stepped by the one
//!   per-agent loop in this crate — no interner lookup, no δ-memo probe.
//!   The stint adds only the occupancy census and consults the codec only
//!   at the migration boundaries (expand on dense → agent, tally + intern on
//!   agent → dense), so the hand-off stays the exact
//!   Markov-in-configuration transfer.
//! * Protocols without a native decoding run the same stint over
//!   [`DenseAdapter`](crate::DenseAdapter)'s identity codec: the "native"
//!   state is the dense index itself, stepped through
//!   [`DenseProtocol::transition`] — the stint's engine is then exactly
//!   `Simulator<DenseAdapter<P>>`, the sequential arm of
//!   [`DenseSimulator`](crate::DenseSimulator).
//!
//! The per-agent configuration edits — `count_of`, the tally, the
//! state-index-order expansion, `transfer` and `corrupt` — are written once
//! here, over a state slice and a codec: [`DecodedStint`] calls them and
//! re-censuses every agent an edit reports as touched, and the sequential
//! arms of [`DenseSimulator`](crate::DenseSimulator) call them with the
//! identity codec, so the two per-agent representations cannot drift apart.
//!
//! # The incremental census
//!
//! The hybrid monitor needs the occupancy `q_occ` (distinct live states) in
//! per-agent mode too.  Instead of sorting a copy of the state vector at
//! every observation (`O(n log n)`), the stint maintains the census
//! **incrementally**: a per-agent vector of 64-bit state hashes and a
//! hash-keyed multiplicity map are updated as interactions change states, so
//! an observation reads a counter in `O(1)`.  Keying by hash makes the
//! census an undercount when two distinct states collide in 64 bits — a
//! `~q_occ²/2⁶⁴` event that can only nudge the monitor's signal, never the
//! simulated process.
//!
//! # Example
//!
//! A protocol whose dense indices decode into a native struct; the stint
//! steps the structs and round-trips exactly:
//!
//! ```rust
//! use ppsim::stint::{AgentCodec, AgentStint, DecodedStint};
//! use ppsim::snapshot::SnapshotReader;
//! use ppsim::{DenseProtocol, PersistState, Protocol};
//! use rand::rngs::SmallRng;
//!
//! /// Parity counter: dense index = (count, flag) packed as 2*count + flag.
//! #[derive(Debug, Clone, Copy)]
//! struct Packed;
//! #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
//! struct Native { count: u8, flag: bool }
//!
//! // Native states are checkpointable field-by-field, so stints taken
//! // mid-run can be persisted (see `ppsim::snapshot`).
//! impl PersistState for Native {
//!     fn persist(&self, out: &mut Vec<u8>) {
//!         self.count.persist(out);
//!         self.flag.persist(out);
//!     }
//!     fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, ppsim::SimError> {
//!         Ok(Native { count: r.read()?, flag: r.read()? })
//!     }
//! }
//!
//! impl Protocol for Packed {
//!     type State = Native;
//!     type Output = bool;
//!     fn initial_state(&self) -> Native { Native { count: 0, flag: false } }
//!     fn interact(&self, u: &mut Native, v: &mut Native, _rng: &mut SmallRng) {
//!         u.count = (u.count + 1) % 8;
//!         u.flag = v.flag;
//!     }
//!     fn output(&self, s: &Native) -> bool { s.flag }
//! }
//!
//! impl DenseProtocol for Packed {
//!     type Output = bool;
//!     fn num_states(&self) -> usize { 16 }
//!     fn initial_state(&self) -> usize { 0 }
//!     fn transition(&self, u: usize, v: usize) -> (usize, usize) {
//!         let (mut a, mut b) = (self.decode_agent(u), self.decode_agent(v));
//!         let mut rng = ppsim::seeded_rng(0);
//!         Protocol::interact(self, &mut a, &mut b, &mut rng);
//!         (self.encode_agent(&a), self.encode_agent(&b))
//!     }
//!     fn output(&self, s: usize) -> bool { s % 2 == 1 }
//! }
//!
//! impl AgentCodec for Packed {
//!     type Native = Packed;
//!     fn native(&self) -> Packed { *self }
//!     fn decode_agent(&self, index: usize) -> Native {
//!         Native { count: (index / 2) as u8, flag: index % 2 == 1 }
//!     }
//!     fn encode_agent(&self, s: &Native) -> usize {
//!         2 * s.count as usize + usize::from(s.flag)
//!     }
//! }
//!
//! // decode → encode round-trips over the whole index space …
//! for i in 0..16 {
//!     assert_eq!(Packed.encode_agent(&Packed.decode_agent(i)), i);
//! }
//! // … and the stint steps native structs, tallying back to counts on demand.
//! let counts = vec![5, 3, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
//! let mut stint = DecodedStint::from_counts(Packed, &counts, 7);
//! stint.run(1_000);
//! assert_eq!(stint.counts().iter().sum::<u64>(), 10);
//! ```

// Deterministic build hashers throughout; maps are lookup-only and
// never iterated in replay-sensitive paths. ppcheck: allow(hashmap-iter)
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::config::ConfigurationStats;
use crate::dense::DenseProtocol;
use crate::error::{check_corrupt, check_transfer, invalid_target, SimError};
use crate::protocol::Protocol;
use crate::rng::seeded_rng;
use crate::simulator::Simulator;
use crate::snapshot::{PersistState, SnapshotReader};

use rand::rngs::SmallRng;
use rand::Rng;

/// A multiplicative word hasher (FxHash-style) for the stint's census: state
/// structs are hashed word-at-a-time far faster than SipHash, and the census
/// is engine-private so no untrusted keys reach it.
#[derive(Debug, Default, Clone)]
pub(crate) struct StateHasher(u64);

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            // `chunks_exact(8)` yields 8-byte slices only. ppcheck: allow(no-unwrap)
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        if !chunks.remainder().is_empty() {
            self.write_u64(tail);
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        // Rotate + xor + multiply by 2⁶⁴/φ: the classic Fx mixing step.
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Hash a state value with the census hasher.
fn state_hash<S: Hash>(state: &S) -> u64 {
    let mut h = StateHasher::default();
    state.hash(&mut h);
    h.finish()
}

/// The incremental occupancy census (see the module docs): the hash of each
/// agent's state and a hash-keyed multiplicity map whose size is `q_occ`.
#[derive(Debug, Clone, Default)]
struct Census {
    hashes: Vec<u64>,
    multiplicity: HashMap<u64, u64, BuildHasherDefault<StateHasher>>,
}

impl Census {
    /// Census a whole state vector.
    fn of<S: Hash>(states: &[S]) -> Self {
        let mut census = Census {
            hashes: Vec::with_capacity(states.len()),
            ..Census::default()
        };
        for state in states {
            let h = state_hash(state);
            census.hashes.push(h);
            *census.multiplicity.entry(h).or_insert(0) += 1;
        }
        census
    }

    /// Distinct live state hashes.
    fn occupied(&self) -> usize {
        self.multiplicity.len()
    }

    /// Re-census agent `idx`, whose state may have changed to `state`.
    fn refresh<S: Hash>(&mut self, idx: usize, state: &S) {
        let new_hash = state_hash(state);
        let old_hash = self.hashes[idx];
        if new_hash == old_hash {
            return;
        }
        match self.multiplicity.entry(old_hash) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            std::collections::hash_map::Entry::Vacant(_) => {
                unreachable!("census lost track of a live state hash")
            }
        }
        *self.multiplicity.entry(new_hash).or_insert(0) += 1;
        self.hashes[idx] = new_hash;
    }
}

/// An optional extension of [`DenseProtocol`]: a typed codec between dense
/// state indices and **native per-agent structs**, plus a native protocol
/// stepping those structs with the monomorphic [`Protocol::interact`].
///
/// Implementing this trait lets the hybrid engine run its per-agent stints on
/// native structs in a `Vec`, with zero interner traffic per interaction,
/// instead of stepping dense indices through
/// [`DenseAdapter`](crate::DenseAdapter)'s identity codec.  Implementers also
/// override [`DenseProtocol::agent_stint`] to hand the engine the stint
/// (three lines; see the module docs of [`crate::hybrid`]).
///
/// # Contract
///
/// * `encode_agent(&decode_agent(i)) == i` for every assigned index `i`
///   (assigned = any index the protocol has handed out; for interned
///   protocols that is `0..discovered`, for arithmetic packings `0..q`).
/// * `decode → Native::interact → encode` must agree with
///   [`DenseProtocol::transition`] on assigned indices — the decoded stint
///   and the identity-codec stint must bisimulate (property-tested per
///   protocol in this workspace).
/// * `Native::output(decode_agent(i)) == DenseProtocol::output(i)`.
///
/// Encoding may **intern**: for interner-backed protocols `encode_agent`
/// assigns fresh indices on first appearance.  The decoded stint encodes
/// only at migration boundaries, so a stint that mints `Θ(n)` transient
/// states never pushes them through the interner.
pub trait AgentCodec: DenseProtocol + Clone + Send + 'static {
    /// The native protocol stepping decoded states; its `State` is the
    /// decoded per-agent struct and its `Output` matches the dense output.
    type Native: Protocol<Output = <Self as DenseProtocol>::Output> + Clone + Send;

    /// The native protocol value (shares any interner/parameters with
    /// `self`).
    fn native(&self) -> Self::Native;

    /// Decode a dense index into the native per-agent state.
    ///
    /// # Panics
    ///
    /// May panic if `index` has not been assigned to any state (interned
    /// protocols assign lazily).
    fn decode_agent(&self, index: usize) -> <Self::Native as Protocol>::State;

    /// Decode a dense index, returning `None` when the index has no state
    /// behind it (unassigned interned index or out of range).
    ///
    /// The default bounds-checks against [`num_states`](DenseProtocol::num_states)
    /// and decodes — correct only for **total** encodings where every index
    /// below `num_states()` is assigned (arithmetic packings like the dense
    /// backup counter).  Interner-backed codecs report their *capacity* as
    /// `num_states()`, so they **must** override this with a non-panicking
    /// lookup (e.g. [`StateInterner::try_get`](crate::StateInterner::try_get),
    /// as every interned codec in this workspace does) — otherwise
    /// [`AgentStint::count_of`] on an unassigned index would panic instead
    /// of returning 0.
    fn try_decode_agent(&self, index: usize) -> Option<<Self::Native as Protocol>::State> {
        if index < self.num_states() {
            Some(self.decode_agent(index))
        } else {
            None
        }
    }

    /// Encode a native state as its dense index, interning it on first
    /// appearance for interner-backed protocols.
    fn encode_agent(&self, state: &<Self::Native as Protocol>::State) -> usize;

    /// A short label for reports: which representation the stint steps.
    fn stint_label(&self) -> &'static str {
        "decoded"
    }
}

/// The per-agent state an [`AgentCodec`] decodes dense indices into.
type AgentState<C> = <<C as AgentCodec>::Native as Protocol>::State;

/// Agents in the state behind dense index `index` (`0` if the index has no
/// state behind it).
pub(crate) fn count_of<C: AgentCodec>(codec: &C, states: &[AgentState<C>], index: usize) -> u64 {
    codec.try_decode_agent(index).map_or(0, |target| {
        states.iter().filter(|&s| *s == target).count() as u64
    })
}

/// Tally per-agent states into `q` dense counts through `encode`.
pub(crate) fn tally<S>(states: &[S], q: usize, mut encode: impl FnMut(&S) -> usize) -> Vec<u64> {
    let mut counts = vec![0u64; q];
    for state in states {
        counts[encode(state)] += 1;
    }
    counts
}

/// Expand dense counts into per-agent states in state-index order — a
/// fixed, representation-independent layout, so the result is a pure
/// function of the configuration.  Each occupied index is decoded once.
///
/// # Panics
///
/// Panics if an occupied index has no state behind it.
pub(crate) fn expand<C: AgentCodec>(codec: &C, counts: &[u64]) -> Vec<AgentState<C>> {
    let mut states = Vec::with_capacity(counts.iter().sum::<u64>() as usize);
    for (index, &c) in counts.iter().enumerate() {
        if c > 0 {
            states.resize(states.len() + c as usize, codec.decode_agent(index));
        }
    }
    states
}

/// Move the first `k` agents (in vector order) holding the state behind
/// `from` to the state behind `to`.
pub(crate) fn transfer<C: AgentCodec>(
    codec: &C,
    states: &mut [AgentState<C>],
    from: usize,
    to: usize,
    k: u64,
    mut touched: impl FnMut(usize, &AgentState<C>),
) -> Result<(), SimError> {
    let pair = codec.try_decode_agent(from).zip(codec.try_decode_agent(to));
    let available = pair
        .as_ref()
        .map(|(from_state, _)| states.iter().filter(|&s| s == from_state).count() as u64);
    check_transfer(from, to, k, codec.num_states(), available)?;
    if let Some((from_state, to_state)) = pair {
        let movers = states
            .iter_mut()
            .enumerate()
            .filter(|(_, s)| **s == from_state);
        for (idx, state) in movers.take(k as usize) {
            *state = to_state.clone();
            touched(idx, state);
        }
    }
    Ok(())
}

/// Corrupt `k` agents chosen uniformly without replacement by a partial
/// Fisher–Yates shuffle: each victim takes the state behind
/// `new_state(current_index, rng)`.  All randomness comes from `rng`.
pub(crate) fn corrupt<C: AgentCodec>(
    codec: &C,
    states: &mut [AgentState<C>],
    k: u64,
    rng: &mut SmallRng,
    new_state: &mut dyn FnMut(usize, &mut SmallRng) -> usize,
    mut touched: impl FnMut(usize, &AgentState<C>),
) -> Result<(), SimError> {
    let n = states.len();
    check_corrupt(k, n as u64)?;
    // After `k` swap steps the prefix of `idx` is a uniform k-subset of the
    // agents, in a uniform order.
    let mut idx: Vec<usize> = (0..n).collect();
    for v in 0..k as usize {
        let swap = v + rng.gen_range(0..n - v);
        idx.swap(v, swap);
        let victim = idx[v];
        let target = new_state(codec.encode_agent(&states[victim]), rng);
        states[victim] = codec
            .try_decode_agent(target)
            .ok_or_else(|| invalid_target(target, codec.num_states()))?;
        touched(victim, &states[victim]);
    }
    Ok(())
}

/// The driving surface the hybrid engine needs from a per-agent stint,
/// object-safe so protocols can hand back their own monomorphised stint
/// ([`DenseProtocol::agent_stint`]) without the engine naming the state type.
pub trait AgentStint<O>: fmt::Debug + Send {
    /// Execute `budget` further interactions.
    fn run(&mut self, budget: u64);
    /// Interactions executed by this stint so far.
    fn interactions(&self) -> u64;
    /// The population size `n`.
    fn population(&self) -> usize;
    /// Distinct live states (the monitor's occupancy signal), maintained
    /// incrementally — `O(1)` to read.  An undercount by the number of
    /// 64-bit state-hash collisions (`~q_occ²/2⁶⁴`, negligible).
    fn occupied_states(&self) -> usize;
    /// Tally the configuration back into dense state counts, interning any
    /// states minted since the stint began (the agent → dense boundary).
    fn counts(&self) -> Vec<u64>;
    /// Number of agents currently in the state behind dense index `state`
    /// (`0` if the index has no state behind it).
    fn count_of(&self, state: usize) -> u64;
    /// Output histogram of the current configuration.
    fn output_stats(&self) -> ConfigurationStats<O>;
    /// Move `k` agents from the state behind index `from` to the state
    /// behind index `to` (experiment setup).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if either index has no state
    /// behind it or fewer than `k` agents are in `from`.
    fn transfer(&mut self, from: usize, to: usize, k: u64) -> Result<(), SimError>;
    /// Corrupt `k` agents chosen uniformly without replacement: each
    /// victim's state is replaced by the state behind the dense index
    /// `new_state(current_index, rng)`, decoded through the codec — the
    /// per-agent arm of [`crate::adversary`] fault injection.  All
    /// randomness comes from the caller's `rng`, never from the stint's
    /// schedule RNG.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `k` exceeds the population
    /// or `new_state` returns an index with no state behind it (the
    /// configuration may be partially corrupted in that case).
    fn corrupt(
        &mut self,
        k: u64,
        rng: &mut SmallRng,
        new_state: &mut dyn FnMut(usize, &mut SmallRng) -> usize,
    ) -> Result<(), SimError>;
    /// Which representation this stint steps: `"decoded"` for a native
    /// codec, `"index"` for [`DenseAdapter`](crate::DenseAdapter)'s
    /// identity codec.
    fn kind(&self) -> &'static str;
    /// Clone into a fresh box (object-safe `Clone`).
    fn box_clone(&self) -> BoxedAgentStint<O>;
    /// Append this stint's full replay state — interaction count, schedule
    /// RNG, per-agent native states — to `out` (see [`crate::snapshot`]).
    ///
    /// The bytes are restored by
    /// [`DenseProtocol::restore_agent_stint`]
    /// (for codec-bearing protocols, via [`DecodedStint::restore_boxed`]).
    /// The census and hashes are *not* serialized: they are pure functions of
    /// the state vector and are rebuilt on restore.
    fn save_stint(&self, out: &mut Vec<u8>);
}

/// A boxed per-agent stint, the form [`DenseProtocol::agent_stint`] returns
/// and the hybrid engine drives.
pub type BoxedAgentStint<O> = Box<dyn AgentStint<O>>;

impl<O> Clone for BoxedAgentStint<O> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A per-agent stint over **native structs**: the sequential engine
/// ([`Simulator`]) stepping the codec's native protocol, plus the occupancy
/// census it maintains incrementally (see the module docs).
///
/// Construction decodes each occupied index once and fans the struct out by
/// its multiplicity (the dense → agent boundary); [`Self::counts`] encodes
/// each agent back (the agent → dense boundary, deduplicated so each
/// distinct state hits the interner once).  In between, the codec is never
/// consulted.
#[derive(Clone)]
pub struct DecodedStint<P: AgentCodec> {
    codec: P,
    sim: Simulator<P::Native>,
    census: Census,
}

impl<P: AgentCodec> DecodedStint<P> {
    /// A stint stepping `sim`, with a freshly built census.
    fn with_sim(codec: P, sim: Simulator<P::Native>) -> Self {
        DecodedStint {
            census: Census::of(sim.states()),
            codec,
            sim,
        }
    }

    /// Expand a dense counts configuration into a per-agent stint, seeding
    /// the schedule RNG with `seed`.  Agents are laid out in state-index
    /// order — a fixed, representation-independent layout, so the hand-off
    /// is a pure function of the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the population (the sum of `counts`) is below 2 or if an
    /// occupied index has no state behind it.
    #[must_use]
    pub fn from_counts(codec: P, counts: &[u64], seed: u64) -> Self {
        let n: u64 = counts.iter().sum();
        assert!(n >= 2, "a population needs at least two agents, got {n}");
        let states = expand(&codec, counts);
        let sim = Simulator::from_parts(codec.native(), states, seeded_rng(seed), 0);
        Self::with_sim(codec, sim)
    }

    /// Boxed construction for [`DenseProtocol::agent_stint`] implementations.
    #[must_use]
    pub fn boxed(
        codec: P,
        counts: &[u64],
        seed: u64,
    ) -> BoxedAgentStint<<P as DenseProtocol>::Output>
    where
        <P as DenseProtocol>::Output: 'static,
        P::Native: 'static,
        AgentState<P>: PersistState,
    {
        Box::new(Self::from_counts(codec, counts, seed))
    }

    /// Rebuild a stint from bytes written by [`AgentStint::save_stint`] — the
    /// three-line body of
    /// [`DenseProtocol::restore_agent_stint`]
    /// overrides.
    ///
    /// The census is a pure function of the state vector and is rebuilt
    /// here rather than trusted from the bytes.
    ///
    /// # Errors
    ///
    /// [`SimError`] variants describing truncated, trailing, or
    /// population-degenerate payloads.
    pub fn restore_boxed(
        codec: P,
        bytes: &[u8],
    ) -> Result<BoxedAgentStint<<P as DenseProtocol>::Output>, SimError>
    where
        <P as DenseProtocol>::Output: 'static,
        P::Native: 'static,
        AgentState<P>: PersistState,
    {
        let mut r = SnapshotReader::new(bytes);
        let sim = Simulator::unpersist_parts(codec.native(), &mut r)?;
        r.finish()?;
        if sim.population() < 2 {
            return Err(SimError::SnapshotCorrupt {
                reason: format!("per-agent stint population {} is below 2", sim.population()),
            });
        }
        Ok(Box::new(Self::with_sim(codec, sim)))
    }

    /// The codec this stint decodes/encodes through.
    #[must_use]
    pub fn codec(&self) -> &P {
        &self.codec
    }

    /// Borrow the native per-agent states.
    #[must_use]
    pub fn states(&self) -> &[AgentState<P>] {
        self.sim.states()
    }
}

impl<P: AgentCodec> fmt::Debug for DecodedStint<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodedStint")
            .field("kind", &self.codec.stint_label())
            .field("population", &self.sim.population())
            .field("interactions", &self.sim.interactions())
            .field("occupied", &self.census.occupied())
            .finish_non_exhaustive()
    }
}

impl<P> AgentStint<<P as DenseProtocol>::Output> for DecodedStint<P>
where
    P: AgentCodec,
    P::Native: 'static,
    <P as DenseProtocol>::Output: 'static,
    AgentState<P>: PersistState,
{
    fn run(&mut self, budget: u64) {
        for _ in 0..budget {
            let (i, j) = self.sim.step_pair();
            let states = self.sim.states();
            self.census.refresh(i, &states[i]);
            self.census.refresh(j, &states[j]);
        }
    }

    fn interactions(&self) -> u64 {
        self.sim.interactions()
    }

    fn population(&self) -> usize {
        self.sim.population()
    }

    fn occupied_states(&self) -> usize {
        self.census.occupied()
    }

    fn counts(&self) -> Vec<u64> {
        // Deduplicate through a local index cache so each distinct state
        // hits the (locked, SipHashed) interner once, not once per agent.
        let mut index_of: HashMap<AgentState<P>, usize, BuildHasherDefault<StateHasher>> =
            HashMap::default();
        tally(self.sim.states(), self.codec.num_states(), |state| {
            *index_of
                .entry(state.clone())
                .or_insert_with(|| self.codec.encode_agent(state))
        })
    }

    fn count_of(&self, state: usize) -> u64 {
        count_of(&self.codec, self.sim.states(), state)
    }

    fn output_stats(&self) -> ConfigurationStats<<P as DenseProtocol>::Output> {
        self.sim.output_stats()
    }

    fn transfer(&mut self, from: usize, to: usize, k: u64) -> Result<(), SimError> {
        let (census, states) = (&mut self.census, self.sim.states_mut());
        transfer(&self.codec, states, from, to, k, |idx, state| {
            census.refresh(idx, state);
        })
    }

    fn corrupt(
        &mut self,
        k: u64,
        rng: &mut SmallRng,
        new_state: &mut dyn FnMut(usize, &mut SmallRng) -> usize,
    ) -> Result<(), SimError> {
        let (census, states) = (&mut self.census, self.sim.states_mut());
        corrupt(&self.codec, states, k, rng, new_state, |idx, state| {
            census.refresh(idx, state);
        })
    }

    fn kind(&self) -> &'static str {
        self.codec.stint_label()
    }

    fn box_clone(&self) -> BoxedAgentStint<<P as DenseProtocol>::Output> {
        Box::new(self.clone())
    }

    fn save_stint(&self, out: &mut Vec<u8>) {
        self.sim.persist_parts(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseAdapter;

    /// Two-state one-way epidemic on dense indices.
    #[derive(Debug, Clone, Copy)]
    struct Rumor;
    impl DenseProtocol for Rumor {
        type Output = bool;
        fn num_states(&self) -> usize {
            2
        }
        fn initial_state(&self) -> usize {
            0
        }
        fn transition(&self, u: usize, v: usize) -> (usize, usize) {
            (u.max(v), v)
        }
        fn output(&self, s: usize) -> bool {
            s == 1
        }
    }

    #[test]
    fn stint_preserves_the_configuration_mass_and_counts_interactions() {
        let counts = vec![9_999u64, 1];
        let mut stint = DecodedStint::from_counts(DenseAdapter(Rumor), &counts, 3);
        assert_eq!(stint.population(), 10_000);
        assert_eq!(stint.occupied_states(), 2);
        stint.run(5_000);
        assert_eq!(stint.interactions(), 5_000);
        let tallied = stint.counts();
        assert_eq!(tallied.iter().sum::<u64>(), 10_000);
        assert_eq!(tallied.len(), 2);
    }

    #[test]
    fn census_tracks_occupancy_to_saturation() {
        let counts = vec![499u64, 1];
        let mut stint = DecodedStint::from_counts(DenseAdapter(Rumor), &counts, 11);
        // Run the epidemic to saturation: occupancy collapses 2 → 1.
        while stint.count_of(1) < 500 {
            stint.run(1_000);
        }
        assert_eq!(stint.occupied_states(), 1);
        assert_eq!(stint.counts(), vec![0, 500]);
        assert_eq!(stint.output_stats().count_of(&true), 500);
    }

    #[test]
    fn stint_matches_the_sequential_simulator_trajectory_exactly() {
        // Same seed, same scheduler, same RNG consumption: the decoded stint
        // over the identity codec must replicate Simulator<DenseAdapter<_>>
        // bit for bit — the hybrid engine's fallback stint and the
        // sequential engine step the same per-agent process.
        use crate::simulator::Simulator;
        let n = 300usize;
        let mut reference = Simulator::new(DenseAdapter(Rumor), n, 42).unwrap();
        // The stint lays agents out in state-index order, so the one infected
        // agent sits at the *end* of its vector — lay the reference out the
        // same way so the two per-agent vectors can be compared directly.
        reference.states_mut()[n - 1] = 1;
        let counts = vec![n as u64 - 1, 1];
        let mut stint = DecodedStint::from_counts(DenseAdapter(Rumor), &counts, 42);
        for _ in 0..50 {
            reference.run(100);
            stint.run(100);
            assert_eq!(reference.states(), stint.states());
        }
    }

    #[test]
    fn transfer_moves_agents_and_validates() {
        let counts = vec![10u64, 0];
        let mut stint = DecodedStint::from_counts(DenseAdapter(Rumor), &counts, 0);
        assert!(stint.transfer(0, 1, 11).is_err());
        assert!(stint.transfer(0, 5, 1).is_err());
        stint.transfer(0, 1, 4).unwrap();
        assert_eq!(stint.count_of(1), 4);
        assert_eq!(stint.occupied_states(), 2);
        assert_eq!(stint.counts(), vec![6, 4]);
    }

    #[test]
    fn boxed_stints_clone_and_report_their_kind() {
        let counts = vec![5u64, 5];
        let stint: BoxedAgentStint<bool> = DecodedStint::boxed(DenseAdapter(Rumor), &counts, 1);
        assert_eq!(stint.kind(), "index");
        let mut copy = stint.clone();
        copy.run(100);
        assert_eq!(stint.interactions(), 0, "clone is independent");
        assert_eq!(copy.interactions(), 100);
    }

    #[test]
    fn save_stint_restore_boxed_round_trips_and_replays_bit_identically() {
        let counts = vec![499u64, 1];
        let mut reference = DecodedStint::from_counts(DenseAdapter(Rumor), &counts, 11);
        reference.run(1_000);
        let mut bytes = Vec::new();
        reference.save_stint(&mut bytes);

        let mut restored = DecodedStint::restore_boxed(DenseAdapter(Rumor), &bytes).unwrap();
        assert_eq!(restored.interactions(), 1_000);
        assert_eq!(restored.occupied_states(), reference.occupied_states());
        assert_eq!(restored.counts(), reference.counts());

        reference.run(2_000);
        restored.run(2_000);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        reference.save_stint(&mut a);
        restored.save_stint(&mut b);
        assert_eq!(a, b, "resumed stint diverged from the uninterrupted one");
    }

    #[test]
    fn restore_boxed_rejects_truncated_and_degenerate_payloads() {
        let counts = vec![3u64, 1];
        let stint = DecodedStint::from_counts(DenseAdapter(Rumor), &counts, 0);
        let mut bytes = Vec::new();
        stint.save_stint(&mut bytes);
        assert!(
            DecodedStint::restore_boxed(DenseAdapter(Rumor), &bytes[..bytes.len() - 1]).is_err()
        );

        let lonely = DecodedStint::with_sim(
            DenseAdapter(Rumor),
            Simulator::from_parts(DenseAdapter(Rumor), vec![0u32], seeded_rng(0), 0),
        );
        let mut bytes = Vec::new();
        lonely.save_stint(&mut bytes);
        assert!(matches!(
            DecodedStint::restore_boxed(DenseAdapter(Rumor), &bytes),
            Err(SimError::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn state_hasher_distinguishes_field_orderings() {
        // Sanity: the word-mixer is order-sensitive (rotate before xor).
        assert_ne!(state_hash(&(1u64, 2u64)), state_hash(&(2u64, 1u64)));
        assert_ne!(state_hash(&[0u8; 16]), state_hash(&[0u8; 24]));
    }
}
