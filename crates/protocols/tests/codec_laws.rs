//! Codec laws for the three ported conformance protocols (ISSUE 8
//! satellite): every [`AgentCodec`] must round-trip its total encoding,
//! refuse out-of-range indices, bisimulate the dense transition through
//! `decode → native interact → encode`, agree on outputs — and the decoded
//! stint must retrace the `u32` index stint over `DenseAdapter` exactly.

use proptest::prelude::*;

use ppproto::{HermanTokens, StochasticCoalescence, TradeoffElection};
use ppsim::stint::AgentCodec;
use ppsim::{seeded_rng, DecodedStint, DenseAdapter, DenseProtocol, Protocol};

/// The three codec laws every total (arithmetic) encoding must satisfy,
/// checked for one index: round-trip, `try_decode` totality in range, and
/// the output law.
fn check_index_laws<C: AgentCodec>(codec: &C, i: usize)
where
    <C::Native as Protocol>::State: PartialEq + std::fmt::Debug,
{
    assert_eq!(codec.encode_agent(&codec.decode_agent(i)), i);
    assert_eq!(codec.try_decode_agent(i), Some(codec.decode_agent(i)));
    assert_eq!(
        codec.native().output(&codec.decode_agent(i)),
        DenseProtocol::output(codec, i),
        "output law broken at index {i}"
    );
}

/// The bisimulation law for one ordered pair: stepping decoded structs
/// through the native protocol and re-encoding must agree with the dense
/// transition table.
fn check_bisimulation<C: AgentCodec>(codec: &C, i: usize, j: usize) {
    let native = codec.native();
    let mut rng = seeded_rng(0);
    let mut u = codec.decode_agent(i);
    let mut v = codec.decode_agent(j);
    native.interact(&mut u, &mut v, &mut rng);
    assert_eq!(
        (codec.encode_agent(&u), codec.encode_agent(&v)),
        codec.transition(i, j),
        "δ diverged at ({i}, {j})"
    );
}

proptest! {
    /// Herman: all four states round-trip and bisimulate.
    #[test]
    fn herman_codec_laws(i in 0usize..4, j in 0usize..4) {
        let codec = HermanTokens::new();
        check_index_laws(&codec, i);
        check_bisimulation(&codec, i, j);
    }

    /// Coalescence: the `(size, coin)` packing round-trips and bisimulates
    /// over the whole `0..2(max_size+1)` range.
    #[test]
    fn coalescence_codec_laws(i in 0usize..258, j in 0usize..258) {
        let codec = StochasticCoalescence::new(128);
        prop_assume!(i < codec.num_states() && j < codec.num_states());
        check_index_laws(&codec, i);
        check_bisimulation(&codec, i, j);
    }

    /// Election: the `(rank, tag)` packing round-trips and bisimulates
    /// over the whole `0..K·n` range.
    #[test]
    fn election_codec_laws(i in 0usize..256, j in 0usize..256, k in 2usize..9) {
        let codec = TradeoffElection::new(64, k);
        let q = codec.num_states();
        check_index_laws(&codec, i % q);
        check_bisimulation(&codec, i % q, j % q);
    }
}

#[test]
fn out_of_range_indices_decode_to_none() {
    let herman = HermanTokens::new();
    assert_eq!(herman.try_decode_agent(4), None);
    let coalescence = StochasticCoalescence::new(64);
    assert_eq!(coalescence.try_decode_agent(coalescence.num_states()), None);
    let election = TradeoffElection::new(48, 4);
    assert_eq!(election.try_decode_agent(election.num_states() + 7), None);
}

/// The decoded stint must retrace the `u32` index stint over
/// [`DenseAdapter`] interaction for interaction: the native structs and the
/// dense indices step the same transition system off the same RNG stream,
/// so the trajectories are bit-identical, not just distributionally equal.
fn decoded_stint_matches_interned<C>(codec: C, n: usize, scatter: impl Fn(usize) -> usize)
where
    C: AgentCodec,
{
    let q = codec.num_states();
    let mut counts = vec![0u64; q];
    for a in 0..n {
        counts[scatter(a) % q] += 1;
    }
    let mut decoded = codec
        .agent_stint(&counts, 977)
        .expect("the protocol carries a codec");
    let mut index = DecodedStint::boxed(DenseAdapter(codec), &counts, 977);
    assert_eq!(decoded.kind(), "decoded");
    assert_eq!(index.kind(), "index");
    for _ in 0..8 {
        decoded.run(5_000);
        index.run(5_000);
        assert_eq!(
            decoded.counts(),
            index.counts(),
            "decoded and index stints diverged"
        );
    }
}

#[test]
fn coalescence_decoded_stint_matches_interned_trajectory() {
    // Every agent a distinct size: Θ(n) occupancy forces the per-agent leg.
    decoded_stint_matches_interned(StochasticCoalescence::new(512), 512, |a| 2 * a + (a & 1));
}

#[test]
fn election_decoded_stint_matches_interned_trajectory() {
    decoded_stint_matches_interned(TradeoffElection::new(512, 4), 512, |a| 4 * a + (a % 3));
}

#[test]
fn herman_decoded_stint_matches_interned_trajectory() {
    decoded_stint_matches_interned(HermanTokens::new(), 24, |a| a);
}
