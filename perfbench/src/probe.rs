//! Probes run after the traced seeds on the configurations captured at
//! convergence-probe points: the protocol's δ over the occupied pairs, and
//! the public samplers at the workload's own sizes.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ppsim::sample::{hypergeometric, multivariate_hypergeometric_sparse, CollisionSampler};
use ppsim::{DenseProtocol, SimError};
use rand::rngs::SmallRng;

use crate::drive::Capture;

/// δ evaluated over every ordered pair of occupied states of one capture.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaSample {
    /// Timed δ evaluations and the nanoseconds they took.
    pub evals: u64,
    pub ns: u64,
    /// Count-weighted ordered pairs with `δ(i, j) = (i, j)`, and all pairs.
    pub null_weight: f64,
    pub pair_weight: f64,
}

impl DeltaSample {
    pub fn add(&mut self, other: DeltaSample) {
        self.evals += other.evals;
        self.ns += other.ns;
        self.null_weight += other.null_weight;
        self.pair_weight += other.pair_weight;
    }
}

/// Evaluate δ over the occupied pairs of `capture` on `fresh`, a new
/// protocol instance restored from the capture's protocol state, so that
/// states the probe mints never enter the interner of the run.
///
/// # Errors
///
/// Propagates `restore_protocol_state` errors.
pub fn delta<P: DenseProtocol>(fresh: &P, capture: &Capture) -> Result<DeltaSample, SimError> {
    fresh.restore_protocol_state(&capture.protocol_state)?;
    let occ = &capture.occupied;
    // The untimed first pass weighs the null pairs and mints any state the
    // run had not discovered yet, so the timed passes see a warm interner.
    let mut out = DeltaSample::default();
    for &(i, ci) in occ {
        for &(j, cj) in occ {
            let w = (if i == j { ci * (ci - 1) } else { ci * cj }) as f64;
            let (i, j) = (i as usize, j as usize);
            out.pair_weight += w;
            if fresh.transition(i, j) == (i, j) {
                out.null_weight += w;
            }
        }
    }
    let start = Instant::now();
    while out.evals == 0 || start.elapsed() < Duration::from_millis(2) {
        for &(i, _) in occ {
            for &(j, _) in occ {
                black_box(fresh.transition(black_box(i as usize), black_box(j as usize)));
            }
        }
        out.evals += (occ.len() * occ.len()) as u64;
    }
    out.ns = u64::try_from(start.elapsed().as_nanos()).expect("probe time fits in u64 ns");
    Ok(out)
}

/// `reps` block-length draws of the birthday process over `n` agents.
pub fn collision(rng: &mut SmallRng, n: u64, reps: u64) {
    let sampler = CollisionSampler::new(n);
    for _ in 0..reps {
        black_box(sampler.sample(rng, n));
    }
}

/// The `⌊√total⌋` agents a block of a population of `total` draws.
fn block_draws(total: u64) -> u64 {
    total.isqrt()
}

/// `reps` sparse multivariate hypergeometric draws of one block over the
/// captured occupied counts.
pub fn mvhg(rng: &mut SmallRng, capture: &Capture, reps: u64) {
    let counts: Vec<u64> = capture.occupied.iter().map(|&(_, c)| c).collect();
    let occupied: Vec<u32> = (0..counts.len())
        .map(|s| u32::try_from(s).expect("occupied count fits in u32"))
        .collect();
    let total: u64 = counts.iter().sum();
    let mut out = Vec::with_capacity(counts.len());
    for _ in 0..reps {
        multivariate_hypergeometric_sparse(
            rng,
            &counts,
            &occupied,
            total,
            block_draws(total),
            &mut out,
        );
        black_box(&out);
    }
}

/// `reps` univariate hypergeometric draws of one block's share of the
/// largest captured class.
pub fn hypergeom(rng: &mut SmallRng, capture: &Capture, reps: u64) {
    let total: u64 = capture.occupied.iter().map(|&(_, c)| c).sum();
    let largest = capture.occupied.iter().map(|&(_, c)| c).max().unwrap_or(0);
    for _ in 0..reps {
        black_box(hypergeometric(rng, total, largest, block_draws(total)));
    }
}
