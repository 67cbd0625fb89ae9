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
//!
//! The snapshot-byte pins (`snapshot_digest`) fix the checkpoint bytes
//! themselves: the per-agent state layout, the RNG stream and the payload
//! order of the sequential engine and of both hybrid stint kinds.  They were
//! recorded while `CountExact` and `Approximate` kept flat agent structs of
//! their own and the decoded stint stepped its own agent vector; that they
//! still match shows the composition's `SyncedAgent` persists the same bytes
//! and the stint steps through the sequential engine without moving a draw.

use popcount::{Approximate, ApproximateParams, CountExact, CountExactParams, DenseCountExact};
use ppproto::DenseJunta;
use ppsim::{
    BatchedSimulator, Checkpointable, DenseSimulator, Engine, HybridSimulator, Simulator,
    SwitchDirection,
};

/// FNV-1a-64 over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the full counts vector, as little-endian `u64`s.
fn digest(counts: &[u64]) -> u64 {
    fnv1a(counts.iter().flat_map(|c| c.to_le_bytes()))
}

/// FNV-1a over an engine's framed checkpoint bytes.
fn snapshot_digest(engine: &impl Checkpointable) -> u64 {
    fnv1a(engine.save_state().to_bytes())
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
    // Snapshot digest after 10 000 interactions, mid decoded stint.
    let golden_snapshot: [(u64, u64); 2] = [(1, 0x6b2a_5cbc_fae5_a67a), (2, 0xbd5e_b2ad_4fcf_bc98)];
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
    for (seed, hash) in golden_snapshot {
        let proto = DenseCountExact::new(CountExactParams::dense_at_scale(N));
        let mut sim = HybridSimulator::new(proto, N, seed).unwrap();
        sim.run(10_000);
        assert!(!sim.is_dense(), "seed {seed}: mid stint");
        assert_eq!(snapshot_digest(&sim), hash, "seed {seed}");
    }
}

#[test]
fn count_exact_sequential_snapshot_is_pinned() {
    const N: usize = 500;
    let proto = CountExact::new(CountExactParams::dense_at_scale(N));
    let mut sim = Simulator::new(proto, N, 7).unwrap();
    sim.run(500_000);
    assert_eq!(snapshot_digest(&sim), 0x8970_d625_e1a7_8f9f);
}

#[test]
fn approximate_sequential_snapshot_is_pinned() {
    let mut sim = Simulator::new(Approximate::new(ApproximateParams::default()), 500, 7).unwrap();
    sim.run(500_000);
    assert_eq!(snapshot_digest(&sim), 0xe3a8_31c9_6ac9_8857);
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

    let mut sim = HybridSimulator::new(DenseJunta::new(), 2000, 3).unwrap();
    sim.switch_to_agent().unwrap();
    sim.run(500);
    assert!(!sim.is_dense());
    assert_eq!(snapshot_digest(&sim), 0x8e86_b4e5_584d_72b4);
}
