//! Driving an engine to convergence through its public API, in exactly the
//! chunk sequence of the engines' own `run_until(pred, check_every, budget)`:
//! probe once, then `run(min(check_every, budget - interactions()))` and
//! probe again until the probe sees a unanimous output or the budget runs
//! out.  The traced variant wraps every call in a span and records the
//! interactions and occupancy at each chunk boundary; it issues the same
//! calls, so a seed's trajectory is identical either way.  A traced seed
//! runs in lockstep with untraced engines of the same seed, so the two can
//! be timed against each other on a machine whose speed drifts.

use std::time::{Duration, Instant};

use popcount::CountExact;
use ppsim::{DenseProtocol, DenseSimulator, HybridSimulator, Simulator};

use crate::trace::Tracer;

/// The layer a `run(chunk)` call executes in, named after its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Batched,
    Sharded,
    Stint,
    Simulator,
}

impl Layer {
    pub fn span(self) -> &'static str {
        match self {
            Layer::Batched => "batched.run",
            Layer::Sharded => "sharded.run",
            Layer::Stint => "stint.run",
            Layer::Simulator => "simulator.run",
        }
    }
}

/// Span name of a hybrid `run(chunk)` call during which the engine migrated.
pub const SWITCH_CHUNK: &str = "hybrid.switch_chunk";

/// A unanimous protocol output, reduced to the integer the checks compare.
pub trait Verdict {
    fn value(&self) -> Option<i64>;
}

impl Verdict for bool {
    fn value(&self) -> Option<i64> {
        self.then_some(1)
    }
}

impl Verdict for Option<u64> {
    fn value(&self) -> Option<i64> {
        self.map(|v| i64::try_from(v).expect("a population count fits in i64"))
    }
}

/// A configuration held as counts: its occupied `(state, count)` pairs and
/// the protocol state (interner contents) that gives the indices meaning.
#[derive(Debug, Clone)]
pub struct Capture {
    pub occupied: Vec<(u32, u64)>,
    pub protocol_state: Vec<u8>,
}

fn capture_counts<P: DenseProtocol>(counts: &[u64], protocol: &P) -> Capture {
    let occupied = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(s, &c)| (u32::try_from(s).expect("dense indices fit in u32"), c))
        .collect();
    Capture {
        occupied,
        protocol_state: protocol.save_protocol_state(),
    }
}

/// An engine behind the calls the benchmark makes into it.
pub trait Driven {
    /// One `run(chunk)` call.
    fn run(&mut self, chunk: u64);
    fn interactions(&self) -> u64;
    /// The convergence probe (`output_stats()`): the unanimous output once
    /// every agent outputs the same value.
    fn unanimous(&self) -> Option<i64>;
    /// The layer that executes the next chunk.
    fn layer(&self) -> Layer;
    /// Occupied states `q_occ` (0 where the engine keeps no census).
    fn occupied(&self) -> u64 {
        0
    }
    /// Hybrid migrations so far.
    fn switches(&self) -> usize {
        0
    }
    /// Interactions the hybrid engine executed on its count-based leg.
    fn dense_interactions(&self) -> u64 {
        0
    }
    /// Distinct states the protocol's interner holds.
    fn discovered_states(&self) -> u64 {
        0
    }
    /// Interactions per sharded epoch (0 off the sharded engine).
    fn epoch_interactions(&self) -> u64 {
        0
    }
    /// The configuration, when it is currently held as counts.
    fn capture(&self) -> Option<Capture> {
        None
    }
}

fn discovered<P: DenseProtocol>(p: &P) -> u64 {
    p.discovered_states().map_or(0, |s| s as u64)
}

impl<P> Driven for HybridSimulator<P>
where
    P: DenseProtocol + Clone + Send + 'static,
    P::Output: Verdict,
{
    fn run(&mut self, chunk: u64) {
        HybridSimulator::run(self, chunk);
    }
    fn interactions(&self) -> u64 {
        HybridSimulator::interactions(self)
    }
    fn unanimous(&self) -> Option<i64> {
        self.output_stats().unanimous().and_then(Verdict::value)
    }
    /// The workloads run the hybrid engine on its batched substrate.
    fn layer(&self) -> Layer {
        if self.is_dense() {
            Layer::Batched
        } else {
            Layer::Stint
        }
    }
    fn occupied(&self) -> u64 {
        self.occupied_states() as u64
    }
    fn switches(&self) -> usize {
        HybridSimulator::switches(self).len()
    }
    fn dense_interactions(&self) -> u64 {
        HybridSimulator::dense_interactions(self)
    }
    fn discovered_states(&self) -> u64 {
        discovered(self.protocol())
    }
    fn capture(&self) -> Option<Capture> {
        self.as_dense_counts()
            .map(|counts| capture_counts(counts, self.protocol()))
    }
}

impl<P> Driven for DenseSimulator<P>
where
    P: DenseProtocol + Clone + Send + 'static,
    P::Output: Verdict,
{
    fn run(&mut self, chunk: u64) {
        DenseSimulator::run(self, chunk);
    }
    fn interactions(&self) -> u64 {
        DenseSimulator::interactions(self)
    }
    fn unanimous(&self) -> Option<i64> {
        self.output_stats().unanimous().and_then(Verdict::value)
    }
    fn layer(&self) -> Layer {
        match self {
            DenseSimulator::Sequential(_) => Layer::Simulator,
            DenseSimulator::Batched(_) => Layer::Batched,
            DenseSimulator::Sharded(_) => Layer::Sharded,
            DenseSimulator::Hybrid(h) => Driven::layer(h.as_ref()),
        }
    }
    fn occupied(&self) -> u64 {
        match self {
            DenseSimulator::Sequential(_) => 0,
            DenseSimulator::Batched(s) => s.occupied_states() as u64,
            DenseSimulator::Sharded(s) => s.occupied_states() as u64,
            DenseSimulator::Hybrid(h) => h.occupied_states() as u64,
        }
    }
    fn switches(&self) -> usize {
        match self {
            DenseSimulator::Hybrid(h) => h.switches().len(),
            _ => 0,
        }
    }
    fn dense_interactions(&self) -> u64 {
        match self {
            DenseSimulator::Hybrid(h) => h.dense_interactions(),
            _ => 0,
        }
    }
    fn discovered_states(&self) -> u64 {
        match self {
            DenseSimulator::Sequential(s) => discovered(&s.protocol().0),
            DenseSimulator::Batched(s) => discovered(s.protocol()),
            DenseSimulator::Sharded(s) => discovered(s.protocol()),
            DenseSimulator::Hybrid(h) => discovered(h.protocol()),
        }
    }
    fn epoch_interactions(&self) -> u64 {
        match self {
            DenseSimulator::Sharded(s) => s.epoch_interactions(),
            _ => 0,
        }
    }
    fn capture(&self) -> Option<Capture> {
        match self {
            DenseSimulator::Sequential(_) => None,
            DenseSimulator::Batched(s) => Some(capture_counts(s.counts(), s.protocol())),
            DenseSimulator::Sharded(s) => Some(capture_counts(s.counts(), s.protocol())),
            DenseSimulator::Hybrid(h) => Driven::capture(h.as_ref()),
        }
    }
}

impl Driven for Simulator<CountExact> {
    fn run(&mut self, chunk: u64) {
        Simulator::run(self, chunk);
    }
    fn interactions(&self) -> u64 {
        Simulator::interactions(self)
    }
    fn unanimous(&self) -> Option<i64> {
        self.output_stats().unanimous().and_then(Verdict::value)
    }
    fn layer(&self) -> Layer {
        Layer::Simulator
    }
}

/// How one seed's drive ended.
#[derive(Debug, Clone, Copy)]
pub struct Drive {
    /// Seconds spent in this engine's own calls, from the first probe to
    /// the probe that saw convergence (or to budget exhaustion).
    pub wall_s: f64,
    pub interactions: u64,
    /// The unanimous output, `None` if the budget ran out first.
    pub output: Option<i64>,
}

/// An untraced engine driven one chunk at a time.  `chunk_ns` counts only
/// the time inside its own calls, so engines driven in turn each get their
/// own: the first probe, then each chunk with the probe after it.
struct Leg<'a, D> {
    sim: &'a mut D,
    chunk_ns: Vec<u64>,
    output: Option<i64>,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("a chunk takes less than 584 years")
}

impl<'a, D: Driven> Leg<'a, D> {
    fn new(sim: &'a mut D) -> Self {
        let start = Instant::now();
        let output = sim.unanimous();
        Leg {
            sim,
            chunk_ns: vec![ns(start.elapsed())],
            output,
        }
    }

    fn running(&self, budget: u64) -> bool {
        self.output.is_none() && self.sim.interactions() < budget
    }

    fn step(&mut self, check_every: u64, budget: u64) {
        let start = Instant::now();
        self.sim
            .run(check_every.min(budget - self.sim.interactions()));
        self.output = self.sim.unanimous();
        self.chunk_ns.push(ns(start.elapsed()));
    }

    fn end(&self) -> Drive {
        Drive {
            wall_s: self.chunk_ns.iter().sum::<u64>() as f64 / 1e9,
            interactions: self.sim.interactions(),
            output: self.output,
        }
    }
}

/// The traced engine: each chunk (and the first probe) is a root `chunk`
/// span holding one span per call, and configurations are captured inside
/// `bench.capture` spans, which the traced wall time excludes.
struct TracedLeg<'a, D> {
    sim: &'a mut D,
    tracer: &'a mut Tracer,
    chunks: u64,
    output: Option<i64>,
    /// Capture after every `stride`-th chunk.
    stride: u64,
    captures: Vec<Capture>,
}

impl<'a, D: Driven> TracedLeg<'a, D> {
    fn new(sim: &'a mut D, tracer: &'a mut Tracer) -> Self {
        let root = tracer.open("chunk");
        let output = tracer.span("config.output_stats", || sim.unanimous());
        tracer.close(root, 0, sim.occupied());
        TracedLeg {
            sim,
            tracer,
            chunks: 0,
            output,
            stride: 1,
            captures: Vec::new(),
        }
    }

    fn running(&self, budget: u64) -> bool {
        self.output.is_none() && self.sim.interactions() < budget
    }

    fn step(&mut self, check_every: u64, budget: u64) {
        let (sim, tracer) = (&mut *self.sim, &mut *self.tracer);
        let before = sim.interactions();
        let root = tracer.open("chunk");
        let (layer, switches) = (sim.layer(), sim.switches());
        let id = tracer.open(layer.span());
        sim.run(check_every.min(budget - before));
        let executed = sim.interactions() - before;
        if sim.switches() != switches {
            tracer.rename(id, SWITCH_CHUNK);
        }
        tracer.close(id, executed, sim.occupied());
        self.chunks += 1;
        if self.chunks.is_multiple_of(self.stride) {
            if let Some(c) = tracer.span("bench.capture", || sim.capture()) {
                self.captures.push(c);
            }
            // The run's length is not known ahead, so keep the captures
            // evenly spaced by dropping every other one and halving the
            // capture rate whenever the buffer fills.
            if self.captures.len() == MAX_CAPTURES {
                let mut keep = false;
                self.captures.retain(|_| {
                    keep = !keep;
                    !keep
                });
                self.stride *= 2;
            }
        }
        self.output = tracer.span("config.output_stats", || sim.unanimous());
        tracer.close(root, executed, sim.occupied());
    }
}

/// Captures kept per traced seed: between half this and this, minus one.
const MAX_CAPTURES: usize = 16;

/// Drive `sim` untraced.
pub fn drive<D: Driven>(sim: &mut D, check_every: u64, budget: u64) -> Drive {
    let mut leg = Leg::new(sim);
    while leg.running(budget) {
        leg.step(check_every, budget);
    }
    leg.end()
}

/// What [`drive_lockstep`] returns for one seed.
#[derive(Debug)]
pub struct Lockstep {
    /// One per untraced engine, in order.
    pub plain: Vec<Drive>,
    /// The first untraced engine's time per chunk, the first probe first.
    pub untraced_chunk_ns: Vec<u64>,
    /// The traced engine's interactions and output.
    pub traced: (u64, Option<i64>),
    /// Configurations captured at evenly spaced chunk boundaries of the
    /// traced engine.
    pub captures: Vec<Capture>,
}

/// Drive the untraced engines `plain` and the traced engine `traced`, all
/// built from one seed, in lockstep: one chunk of each in turn, until every
/// one has converged or used its budget.  Interleaving the chunks makes slow
/// drift of a shared machine weigh on every engine alike, so the traced time
/// can be held against the untraced time of the same chunks.
pub fn drive_lockstep<D: Driven>(
    plain: &mut [D],
    traced: &mut D,
    check_every: u64,
    budget: u64,
    tracer: &mut Tracer,
) -> Lockstep {
    let mut legs: Vec<Leg<D>> = plain.iter_mut().map(Leg::new).collect();
    let mut t = TracedLeg::new(traced, tracer);
    loop {
        let mut running = false;
        for leg in &mut legs {
            if leg.running(budget) {
                leg.step(check_every, budget);
                running = true;
            }
        }
        if t.running(budget) {
            t.step(check_every, budget);
            running = true;
        }
        if !running {
            break;
        }
    }
    Lockstep {
        plain: legs.iter().map(Leg::end).collect(),
        untraced_chunk_ns: legs.swap_remove(0).chunk_ns,
        traced: (t.sim.interactions(), t.output),
        captures: t.captures,
    }
}
