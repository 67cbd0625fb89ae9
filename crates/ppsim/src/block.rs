//! Collision-free block primitives shared by the batched and sharded engines.
//!
//! Both [`BatchedSimulator`](crate::BatchedSimulator) and
//! [`ShardedBatchedSimulator`](crate::ShardedBatchedSimulator) advance a
//! counts-vector configuration by blocks of interactions on pairwise-distinct
//! agents.  The pieces they share live here:
//!
//! * [`DeltaTable`] — the validated transition function: a precomputed
//!   `q × q` table for small static protocols, a fixed 1 MiB direct-mapped
//!   cache for dynamic (interned) ones;
//! * [`Occupancy`] — the duplicate-free list of possibly-occupied states that
//!   keeps every per-block loop `O(q_occupied)` instead of `O(q)`;
//! * [`TouchSet`] — a flat per-state accumulator for the agents a block has
//!   already touched, merged back into the configuration once per block;
//! * [`draw_one`] / [`pair_classes`] — categorical draws against a sparse
//!   multiset and the random-contingency-table pairing of initiator classes
//!   with responder classes.
//!
//! A block at population `n` runs only `Θ(√n)` interactions (≈ 62 at
//! `n = 10⁴`), so fixed per-block lookup costs weigh as much as the
//! arithmetic.  The batched engine's block path therefore does no hashing
//! and no thread-local access: δ comes from the table or the direct-mapped
//! cache, and every `ln k!` its samplers need comes from the engine-owned
//! table passed as `lnf` (see [`ln_factorial`](crate::sample::ln_factorial);
//! populations too large for a table, and the sharded engine's cross-shard
//! pairing, pass the per-thread memo instead).  Neither changes a single RNG
//! draw — the cache returns exactly what `transition` returns, the table
//! exactly what `ln_factorial` returns — so trajectories do not depend on
//! either.  Transitions write into the flat `TouchSet` accumulator indexed
//! by state, and the occupied / touched index lists confine all scans to
//! live states, so the `O(q²)` class pairing compiles to tight index
//! arithmetic over contiguous buffers.

use std::cell::RefCell;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::dense::DenseProtocol;
use crate::error::SimError;
use crate::sample::{conditional_class_draw_in, LnFactorials};

/// Precompute the `q × q` transition table only while it stays comfortably in
/// cache; beyond this, transitions are evaluated on the fly for the occupied
/// state pairs only.
pub(crate) const TABLE_MAX_STATES: usize = 256;

/// Slots of the dynamic-protocol δ cache: 2¹⁶ slots of 16 bytes, 1 MiB.
const DELTA_CACHE_SLOTS: usize = 1 << 16;

/// One δ cache slot, `(key + 1, a, b)` for `δ(i, j) = (a, b)` with
/// `key = i << 32 | j`; a zero first field marks an empty slot.
type DeltaSlot = (u64, u32, u32);

/// The transition function `δ` of a dense protocol, validated once and — for
/// table-sized state spaces — precomputed into a flat `q × q` lookup table.
///
/// Dynamic (interned) protocols get a fixed direct-mapped cache instead:
/// their `transition` walks decode → interact → re-encode through the state
/// interner, which costs hundreds of nanoseconds, while the occupied-pair
/// working set repeats heavily across consecutive blocks.  The cache has
/// 2¹⁶ slots (1 MiB), allocated on the first evaluation, so its hot slots
/// stay in the CPU caches however many distinct pairs a run mints; a pair
/// whose slot another pair took is simply evaluated again, and overwrites
/// it.  The cache is sound because `δ` is pure and interned indices are
/// stable for the lifetime of a run: a repeated evaluation interns nothing
/// new, so hits and misses yield the same trajectory.
#[derive(Debug, Clone)]
pub(crate) struct DeltaTable {
    q: usize,
    table: Option<Vec<(u32, u32)>>,
    /// `Some` for dynamic protocols; empty until the first evaluation.
    cache: Option<RefCell<Vec<DeltaSlot>>>,
}

impl DeltaTable {
    /// Validate the protocol's declared state space and build the table.
    ///
    /// Returns the same [`SimError::InvalidParameter`] diagnoses as the
    /// engines' constructors: empty state space, out-of-range initial state,
    /// or (for eagerly tabled spaces) a transition leaving `0..q`.
    pub(crate) fn new<P: DenseProtocol>(protocol: &P) -> Result<Self, SimError> {
        let q = protocol.num_states();
        if q == 0 {
            return Err(SimError::InvalidParameter {
                name: "num_states",
                reason: "the state space must not be empty".into(),
            });
        }
        let q0 = protocol.initial_state();
        if q0 >= q {
            return Err(SimError::InvalidParameter {
                name: "initial_state",
                reason: format!("initial state {q0} outside the state space 0..{q}"),
            });
        }
        // Dynamic (interned) protocols have no states behind most indices at
        // construction time, so their δ can only ever be evaluated lazily.
        let table = if q <= TABLE_MAX_STATES && !protocol.dynamic() {
            let mut t = Vec::with_capacity(q * q);
            for i in 0..q {
                for j in 0..q {
                    let (a, b) = protocol.transition(i, j);
                    if a >= q || b >= q {
                        return Err(SimError::InvalidParameter {
                            name: "transition",
                            reason: format!(
                                "δ({i}, {j}) = ({a}, {b}) leaves the state space 0..{q}"
                            ),
                        });
                    }
                    t.push((a as u32, b as u32));
                }
            }
            Some(t)
        } else {
            None
        };
        let cache = protocol.dynamic().then(|| RefCell::new(Vec::new()));
        Ok(DeltaTable { q, table, cache })
    }

    /// The number of states `q` the table was validated against.
    pub(crate) fn num_states(&self) -> usize {
        self.q
    }

    /// `δ(i, j)`, via the precomputed table or the dynamic-protocol cache
    /// when available.
    #[inline]
    pub(crate) fn eval<P: DenseProtocol>(
        &self,
        protocol: &P,
        i: usize,
        j: usize,
    ) -> (usize, usize) {
        if let Some(t) = &self.table {
            let (a, b) = t[i * self.q + j];
            return (a as usize, b as usize);
        }
        let Some(cache) = &self.cache else {
            return self.transition(protocol, i, j);
        };
        let key = ((i as u64) << 32 | j as u64) + 1;
        // Fibonacci hashing: the top 16 bits of key·2⁶⁴/φ pick the slot.
        let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize;
        let mut cache = cache.borrow_mut();
        if cache.is_empty() {
            cache.resize(DELTA_CACHE_SLOTS, (0, 0, 0));
        }
        let (k, a, b) = cache[slot];
        if k == key {
            return (a as usize, b as usize);
        }
        let (a, b) = self.transition(protocol, i, j);
        cache[slot] = (key, a as u32, b as u32);
        (a, b)
    }

    /// `δ(i, j)` straight from the protocol, range-checked.
    fn transition<P: DenseProtocol>(&self, protocol: &P, i: usize, j: usize) -> (usize, usize) {
        let (a, b) = protocol.transition(i, j);
        assert!(
            a < self.q && b < self.q,
            "δ({i}, {j}) = ({a}, {b}) leaves the state space 0..{}",
            self.q
        );
        (a, b)
    }
}

/// The duplicate-free superset of `{s : counts[s] > 0}`: a dense membership
/// bitmap plus an index list, so per-block work never scans empty regions of
/// large state spaces.
#[derive(Debug, Clone)]
pub(crate) struct Occupancy {
    list: Vec<u32>,
    flags: Vec<bool>,
}

impl Occupancy {
    /// An occupancy set over `q` states with `initial` marked occupied.
    pub(crate) fn new(q: usize, initial: usize) -> Self {
        let mut flags = vec![false; q];
        flags[initial] = true;
        Occupancy {
            list: vec![initial as u32],
            flags,
        }
    }

    /// The possibly-occupied state indices (may include states whose count
    /// has dropped to zero since the last [`Self::compact`]).
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.list
    }

    /// Mark `s` as possibly occupied.
    #[inline]
    pub(crate) fn mark(&mut self, s: usize) {
        if !self.flags[s] {
            self.flags[s] = true;
            self.list.push(s as u32);
        }
    }

    /// Unmark every state, in `O(|list|)`.
    pub(crate) fn clear(&mut self) {
        for &s in &self.list {
            self.flags[s as usize] = false;
        }
        self.list.clear();
    }

    /// Drop list entries whose count is zero.
    pub(crate) fn compact(&mut self, counts: &[u64]) {
        let flags = &mut self.flags;
        self.list.retain(|&s| {
            let keep = counts[s as usize] > 0;
            if !keep {
                flags[s as usize] = false;
            }
            keep
        });
    }

    /// Rebuild from scratch to match `counts` exactly.
    pub(crate) fn rebuild(&mut self, counts: &[u64]) {
        self.list.clear();
        self.flags.fill(false);
        for (s, &c) in counts.iter().enumerate() {
            if c > 0 {
                self.list.push(s as u32);
                self.flags[s] = true;
            }
        }
    }

    /// Restore the occupied list **verbatim**, in the given order, rebuilding
    /// the membership bitmap to match.
    ///
    /// [`Self::rebuild`] orders the list by state index, but the engines'
    /// categorical draws ([`draw_one`], the hypergeometric splits) iterate
    /// the list in *discovery* order — so the list order is part of the
    /// trajectory, and a snapshot restore has to reproduce it exactly rather
    /// than re-derive a sorted one.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotCorrupt`] if an entry is out of range for this
    /// occupancy's state space or appears twice.
    pub(crate) fn restore_list(&mut self, list: Vec<u32>) -> Result<(), SimError> {
        self.flags.fill(false);
        let q = self.flags.len();
        for &s in &list {
            let flag = self
                .flags
                .get_mut(s as usize)
                .ok_or_else(|| SimError::SnapshotCorrupt {
                    reason: format!("occupied state {s} outside the state space 0..{q}"),
                })?;
            if *flag {
                return Err(SimError::SnapshotCorrupt {
                    reason: format!("occupied list repeats state {s}"),
                });
            }
            *flag = true;
        }
        self.list = list;
        Ok(())
    }
}

/// The multiset of agents a block has already touched, as a flat per-state
/// accumulator plus the index list of non-zero entries.
///
/// Transitions add into `acc[state]` unconditionally-cheaply; the merge back
/// into the configuration visits exactly the touched states.
#[derive(Debug, Clone)]
pub(crate) struct TouchSet {
    acc: Vec<u64>,
    list: Vec<u32>,
}

impl TouchSet {
    /// An empty touch set over `q` states.
    pub(crate) fn new(q: usize) -> Self {
        TouchSet {
            acc: vec![0; q],
            list: Vec::new(),
        }
    }

    /// Add `k` agents in state `s`.
    #[inline]
    pub(crate) fn add(&mut self, s: usize, k: u64) {
        if self.acc[s] == 0 {
            self.list.push(s as u32);
        }
        self.acc[s] += k;
    }

    /// Remove one uniformly random agent from the touched multiset holding
    /// `total` agents, returning its state.
    pub(crate) fn draw_one(&mut self, rng: &mut SmallRng, total: u64) -> usize {
        draw_one(rng, &mut self.acc, &self.list, total)
    }

    /// Merge the accumulated agents back into `counts`, marking their states
    /// in `occupied`, and reset to empty.
    pub(crate) fn merge_into(&mut self, counts: &mut [u64], occupied: &mut Occupancy) {
        for &s in &self.list {
            let s = s as usize;
            counts[s] += self.acc[s];
            self.acc[s] = 0;
            occupied.mark(s);
        }
        self.list.clear();
    }
}

/// Under `strict-invariants`: assert a configuration holds exactly
/// `expected` agents after a block's deltas are applied.  Catches any
/// draw/merge bookkeeping bug that loses or duplicates an agent, at
/// `O(q)` per block.
#[cfg(feature = "strict-invariants")]
pub(crate) fn assert_mass_conserved(counts: &[u64], expected: u64, context: &str) {
    let total: u64 = counts.iter().sum();
    assert!(
        total == expected,
        "strict-invariants: {context} lost or duplicated agents ({total} != {expected})"
    );
}

/// Remove one uniformly random agent from the multiset `counts` restricted to
/// `list` (with total mass `total`) and return its state.
pub(crate) fn draw_one(rng: &mut SmallRng, counts: &mut [u64], list: &[u32], total: u64) -> usize {
    debug_assert!(total > 0);
    let mut x = rng.gen_range(0..total);
    for &s in list {
        let c = counts[s as usize];
        if x < c {
            counts[s as usize] -= 1;
            return s as usize;
        }
        x -= c;
    }
    unreachable!("categorical draw beyond total mass");
}

/// Pair initiator classes with responder classes uniformly at random — a
/// random contingency table with the given margins — and report each
/// `(initiator_state, responder_state, multiplicity)` cell to `apply`.
///
/// `resp_pairs` holds `total_responders = Σ init multiplicities` responders
/// and is consumed (multiplicities drained to zero).  The scan start advances
/// past exhausted leading responder classes, so the loop cost is `O(q_occ²)`
/// worst case but `O(q_occ)` amortised once early classes drain.  `lnf` is
/// where the conditional draws read `ln k!` from.
pub(crate) fn pair_classes(
    rng: &mut SmallRng,
    init_pairs: &[(u32, u64)],
    resp_pairs: &mut [(u32, u64)],
    total_responders: u64,
    lnf: impl LnFactorials,
    mut apply: impl FnMut(usize, usize, u64),
) {
    let mut resp_left = total_responders;
    let mut start = 0usize;
    for &(i, di) in init_pairs {
        while start < resp_pairs.len() && resp_pairs[start].1 == 0 {
            start += 1;
        }
        // Invariant: the responder pool still holds exactly `resp_left`
        // agents, of which this initiator class draws `di ≤ resp_left`.
        let mut rem_total = resp_left;
        let mut need = di;
        for pair in resp_pairs[start..].iter_mut() {
            if need == 0 {
                break;
            }
            let (j, rj) = *pair;
            if rj == 0 {
                continue;
            }
            let k = conditional_class_draw_in(rng, rj, rem_total, need, lnf);
            rem_total -= rj;
            if k > 0 {
                pair.1 -= k;
                need -= k;
                apply(i as usize, j as usize, k);
            }
        }
        debug_assert_eq!(need, 0);
        resp_left -= di;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::sample::Memo;

    #[test]
    fn occupancy_marks_compacts_and_rebuilds() {
        let mut occ = Occupancy::new(5, 2);
        assert_eq!(occ.as_slice(), &[2]);
        occ.mark(4);
        occ.mark(4); // idempotent
        assert_eq!(occ.as_slice(), &[2, 4]);
        let counts = [0u64, 0, 0, 0, 7];
        occ.compact(&counts);
        assert_eq!(occ.as_slice(), &[4]);
        occ.rebuild(&[1, 0, 3, 0, 0]);
        assert_eq!(occ.as_slice(), &[0, 2]);
        occ.mark(0); // still marked after rebuild: no duplicate
        assert_eq!(occ.as_slice(), &[0, 2]);
    }

    #[test]
    fn occupancy_restores_a_verbatim_list_order() {
        let mut occ = Occupancy::new(6, 0);
        occ.restore_list(vec![4, 1, 3]).unwrap();
        assert_eq!(occ.as_slice(), &[4, 1, 3], "discovery order is preserved");
        occ.mark(1); // already present: no duplicate
        assert_eq!(occ.as_slice(), &[4, 1, 3]);
        occ.mark(5);
        assert_eq!(occ.as_slice(), &[4, 1, 3, 5]);

        let mut occ = Occupancy::new(4, 0);
        assert!(occ.restore_list(vec![1, 9]).is_err(), "out of range");
        let mut occ = Occupancy::new(4, 0);
        assert!(occ.restore_list(vec![1, 2, 1]).is_err(), "duplicate");
    }

    #[test]
    fn touch_set_accumulates_and_merges() {
        let mut touched = TouchSet::new(4);
        touched.add(1, 3);
        touched.add(3, 2);
        touched.add(1, 1);
        let mut counts = vec![10u64, 0, 0, 0];
        let mut occ = Occupancy::new(4, 0);
        touched.merge_into(&mut counts, &mut occ);
        assert_eq!(counts, vec![10, 4, 0, 2]);
        assert_eq!(occ.as_slice(), &[0, 1, 3]);
        // Reset: a second merge adds nothing.
        touched.merge_into(&mut counts, &mut occ);
        assert_eq!(counts, vec![10, 4, 0, 2]);
    }

    #[test]
    fn pair_classes_preserves_margins() {
        let mut rng = seeded_rng(11);
        for _ in 0..200 {
            let init = vec![(0u32, 5u64), (2, 3)];
            let mut resp = vec![(1u32, 4u64), (3, 4)];
            let mut row = [0u64; 4];
            let mut col = [0u64; 4];
            pair_classes(&mut rng, &init, &mut resp, 8, Memo, |i, j, k| {
                row[i] += k;
                col[j] += k;
            });
            assert_eq!(row, [5, 0, 3, 0]);
            assert_eq!(col, [0, 4, 0, 4]);
            assert!(resp.iter().all(|&(_, r)| r == 0));
        }
    }

    #[test]
    fn pair_classes_margins_are_uniformly_random() {
        // 2×2 table with margins (2, 2) / (2, 2): the (0,0) cell is
        // Hypergeometric(4, 2, 2) with mean 1.
        let mut rng = seeded_rng(13);
        let trials = 20_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            let init = vec![(0u32, 2u64), (1, 2)];
            let mut resp = vec![(0u32, 2u64), (1, 2)];
            let mut cell = 0u64;
            pair_classes(&mut rng, &init, &mut resp, 4, Memo, |i, j, k| {
                if i == 0 && j == 0 {
                    cell += k;
                }
            });
            sum += cell;
        }
        let mean = sum as f64 / trials as f64;
        // σ ≈ 0.58, standard error ≈ 0.004: ±0.025 is ~6σ.
        assert!(
            (mean - 1.0).abs() < 0.025,
            "contingency cell mean {mean:.3} too far from 1.0"
        );
    }

    #[test]
    fn delta_table_validates_and_evaluates() {
        struct Swap;
        impl DenseProtocol for Swap {
            type Output = usize;
            fn num_states(&self) -> usize {
                3
            }
            fn initial_state(&self) -> usize {
                0
            }
            fn transition(&self, u: usize, v: usize) -> (usize, usize) {
                (v, u)
            }
            fn output(&self, s: usize) -> usize {
                s
            }
        }
        let delta = DeltaTable::new(&Swap).unwrap();
        assert_eq!(delta.num_states(), 3);
        assert_eq!(delta.eval(&Swap, 1, 2), (2, 1));
    }

    #[test]
    fn delta_cache_is_transparent_under_slot_conflicts() {
        use std::cell::Cell;

        /// A dynamic protocol over 400 states — 160 000 ordered pairs, well
        /// over the cache's 2¹⁶ slots — counting its δ evaluations.
        struct Mix {
            calls: Cell<u64>,
        }
        impl DenseProtocol for Mix {
            type Output = usize;
            fn num_states(&self) -> usize {
                400
            }
            fn initial_state(&self) -> usize {
                0
            }
            fn transition(&self, u: usize, v: usize) -> (usize, usize) {
                self.calls.set(self.calls.get() + 1);
                ((u * 7 + v) % 400, (u + v * 13 + 1) % 400)
            }
            fn output(&self, s: usize) -> usize {
                s
            }
            fn dynamic(&self) -> bool {
                true
            }
        }
        let mix = Mix {
            calls: Cell::new(0),
        };
        let expect = |u: usize, v: usize| ((u * 7 + v) % 400, (u + v * 13 + 1) % 400);
        let delta = DeltaTable::new(&mix).unwrap();
        let cache = delta.cache.as_ref().unwrap();
        assert_eq!(
            cache.borrow().capacity(),
            0,
            "no cache before the first eval"
        );

        // A hot pair is evaluated once, then served from its slot.
        assert_eq!(delta.eval(&mix, 3, 5), expect(3, 5));
        assert_eq!(cache.borrow().len(), DELTA_CACHE_SLOTS);
        for _ in 0..10 {
            assert_eq!(delta.eval(&mix, 3, 5), expect(3, 5));
        }
        assert_eq!(mix.calls.get(), 1);

        // Two sweeps over every pair force conflicts and evictions; every
        // value still equals δ, and the second sweep re-evaluates the
        // evicted pairs only.
        for sweep in 0..2 {
            for u in 0..400 {
                for v in 0..400 {
                    assert_eq!(delta.eval(&mix, u, v), expect(u, v), "sweep {sweep}");
                }
            }
        }
        let calls = mix.calls.get();
        assert!(
            calls > 160_000 + 1 && calls < 2 * 160_000,
            "{calls} δ evaluations for two sweeps over 160 000 pairs"
        );
    }
}
