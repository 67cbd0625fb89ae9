//! Golden trajectory pin for the batched engine's dense path.
//!
//! `BatchedSimulator<DenseCountExact>` exercises every piece of a
//! collision-free block at once: the birthday-length draw, both multivariate
//! hypergeometric draws, the contingency pairing and the dynamic δ of an
//! interned protocol.  The engine's block path is free to change *how* it
//! evaluates `ln k!` or caches δ, but not a single RNG draw: for a fixed seed
//! the configuration after a fixed budget is part of the engine's contract
//! (checkpoint replay, the conformance matrix and every committed experiment
//! table rely on it).  The constants below were recorded while the block
//! read `ln k!` from a per-thread memo and δ from a `HashMap` memo; that they
//! still match shows the engine's `ln k!` table and direct-mapped δ cache
//! moved no draw.
//!
//! The per-agent pins below cover the other representations the same way:
//! the hybrid engine's decoded stint and both migrations, the sequential
//! engine over `DenseAdapter`, and the identity-codec stint a protocol
//! without a native codec falls back to.  They were recorded before the
//! per-agent configuration edits and the run loop were shared between the
//! engines.

use popcount::{CountExactParams, DenseCountExact};
use ppproto::DenseJunta;
use ppsim::{BatchedSimulator, DenseSimulator, Engine, HybridSimulator, SwitchDirection};

/// FNV-1a over the full counts vector, as little-endian `u64`s.
fn digest(counts: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in counts {
        for b in c.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn dense_count_exact_batched_trajectory_is_pinned() {
    const N: usize = 3000;
    const BUDGET: u64 = 8_000_000;
    // (seed, interactions until 6000 states are discovered, occupied states
    // and counts digest after exactly BUDGET interactions).
    let golden: [(u64, u64, usize, u64); 2] = [
        (1, 1_927_000, 21, 0x97563ef98540b2eb),
        (2, 4_955_000, 16, 0x9b4dea391208ddb1),
    ];
    for (seed, discovery, occupied, hash) in golden {
        let proto = DenseCountExact::new(CountExactParams::dense_at_scale(N));
        let mut sim = BatchedSimulator::new(proto, N, seed).unwrap();
        let outcome = sim.run_until(|s| s.protocol().states_discovered() >= 6000, 1000, BUDGET);
        assert!(outcome.converged(), "seed {seed}: 6000 states by {BUDGET}");
        let at = sim.interactions();
        sim.run(BUDGET - at);
        assert_eq!(at, discovery, "seed {seed}");
        assert_eq!(sim.interactions(), BUDGET, "seed {seed}");
        assert_eq!(sim.occupied_states(), occupied, "seed {seed}");
        assert_eq!(digest(sim.counts()), hash, "seed {seed}");
    }
}

#[test]
fn dense_count_exact_hybrid_trajectory_is_pinned() {
    const N: usize = 3000;
    // (seed, (interactions, direction, occupied) per switch, states
    // discovered and counts digest after 200 000 interactions).
    type Switch = (u64, SwitchDirection, usize);
    let golden: [(u64, [Switch; 2], usize, u64); 2] = [
        (
            1,
            [
                (3000, SwitchDirection::ToAgent, 84),
                (30750, SwitchDirection::ToDense, 19),
            ],
            228,
            0x1a48_08cc_0adf_55be,
        ),
        (
            2,
            [
                (3000, SwitchDirection::ToAgent, 81),
                (29250, SwitchDirection::ToDense, 17),
            ],
            239,
            0x7727_35ff_c479_69df,
        ),
    ];
    for (seed, switches, discovered, hash) in golden {
        let proto = DenseCountExact::new(CountExactParams::dense_at_scale(N));
        let mut sim = HybridSimulator::new(proto, N, seed).unwrap();
        sim.run(200_000);
        let got: Vec<_> = sim
            .switches()
            .iter()
            .map(|e| (e.interactions, e.direction, e.occupied))
            .collect();
        assert_eq!(got, switches, "seed {seed}");
        assert_eq!(
            sim.protocol().states_discovered(),
            discovered,
            "seed {seed}"
        );
        assert_eq!(digest(&sim.counts()), hash, "seed {seed}");
    }
}

#[test]
fn dense_count_exact_sequential_trajectory_is_pinned() {
    const N: usize = 500;
    let proto = DenseCountExact::new(CountExactParams::dense_at_scale(N));
    let mut sim = DenseSimulator::new(Engine::Sequential, proto, N, 7).unwrap();
    sim.run(500_000);
    assert_eq!(digest(&sim.counts()), 0x312c_a12d_abd5_47f7);
}

#[test]
fn identity_codec_stint_trajectory_is_pinned() {
    // The junta protocol carries no native codec, so its per-agent stint
    // steps dense indices through `DenseProtocol::transition`.
    let mut sim = HybridSimulator::new(DenseJunta::new(), 2000, 3).unwrap();
    sim.switch_to_agent().unwrap();
    sim.run(6_000);
    let points: Vec<u64> = sim.switches().iter().map(|e| e.interactions).collect();
    assert_eq!(points, [0, 1000]);
    assert_eq!(sim.occupied_states(), 9);
    assert_eq!(digest(&sim.counts()), 0x6e87_2bcf_057e_31e9);
}
