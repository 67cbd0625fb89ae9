//! Same-machine benchmark of the population-size counting simulator.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload countexact-1e4 --seed 1 --seconds 40 --trace 0
//! cargo test --manifest-path perfbench/Cargo.toml      # smoke sizes, seconds
//! ```
//!
//! **Load model.** Batch jobs in a closed loop: each seed is one run to
//! convergence, started after the previous one ends, in one process with at
//! most `nproc` threads.  The master `--seed` derives the run seeds with
//! `ppsim::derive_seed`; the program receives only `(n, seed, params)`.  A
//! workload's *nominal* seconds per seed (measured on a 2-core Xeon) fix how
//! many seeds a run of `--seconds` uses, so a given master seed always runs
//! the same seeds and only machine noise varies between runs.
//!
//! **End-to-end metrics** (`--trace 0`): `setup_s` (median construction
//! time of protocol + engine, over at least [`MIN_SETUPS`] set-ups),
//! `wall_s` (median seconds to the probe that sees convergence), `mips`
//! (total interactions ÷ total run seconds, millions per second) and
//! `peak_rss_mb` (the process's peak resident set).  Failed runs — budget
//! exhausted or a wrong output — are the result's `failed` out of
//! `attempted`.
//!
//! **Per-layer metrics** (`--trace 1`): a quarter of the seeds, each run
//! untraced and traced in lockstep, chunk by chunk, with every call of the
//! traced engine into a layer's public function in a span (see [`drive`]
//! and [`trace`]).  Per chunk, the layer self times must sum to the
//! untraced time of the same chunk to within 5 % (in the median over
//! chunks), and the traced engine must
//! reproduce every untraced seed's interactions and output.  Probes on the
//! configurations captured at convergence-probe points time δ and the
//! samplers ([`probe`]).

pub mod drive;
pub mod probe;
pub mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use popcount::{count_exact_dense_staged, CountExact, CountExactParams, DenseCountExact};
use ppproto::DenseEpidemic;
use ppsim::{
    derive_seed, seeded_rng, DenseSimulator, Engine, HybridConfig, HybridSimulator,
    HybridSubstrate, SimError, Simulator,
};

use drive::{drive, drive_lockstep, Capture, Driven, Verdict, SWITCH_CHUNK};
use probe::DeltaSample;
use trace::{Totals, Tracer};

/// The protocol and engine a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `DenseEpidemic` on the sharded engine, one rumour planted.
    Epidemic,
    /// Staged `CountExact` on the hybrid engine, batched substrate.
    CountExact,
    /// Staged `CountExact` below the crossover: the per-agent `Simulator`.
    CountExactSeq,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub n: usize,
    /// Seconds one seed takes on the reference machine.
    pub nominal_seed_s: f64,
}

/// Every workload the benchmark knows; `BENCHMARK.json` lists them all.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "epidemic-1e9",
        kind: Kind::Epidemic,
        n: 1_000_000_000,
        nominal_seed_s: 0.3,
    },
    Workload {
        name: "countexact-1e4",
        kind: Kind::CountExact,
        n: 10_000,
        nominal_seed_s: 12.0,
    },
    Workload {
        name: "countexact-seq-2e3",
        kind: Kind::CountExactSeq,
        n: 2_000,
        nominal_seed_s: 1.6,
    },
];

/// Shards of the epidemic's sharded engine.
pub const SHARDS: usize = 8;
/// A run fails once it has used this many convergence-probe chunks.
const MAX_CHUNKS: u64 = 5_000;
/// Fewest set-ups behind the `setup_s` median.
pub const MIN_SETUPS: usize = 31;
/// Sampler calls per probe per capture.
const SAMPLE_REPS: u64 = 2_000;
/// Seed stream of the sampler probes (run seeds use streams 0, 1, ...).
const PROBE_STREAM: u64 = 1 << 40;
/// Seed stream of the extra set-ups behind `setup_s`.
const SETUP_STREAM: u64 = 1 << 41;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at a size whose seed converges in well under a
    /// second, for the smoke tests.
    #[must_use]
    pub fn smoke(self) -> Workload {
        let n = match self.kind {
            Kind::Epidemic => 1_000_000,
            Kind::CountExact => 3_000,
            Kind::CountExactSeq => 500,
        };
        Workload { n, ..self }
    }

    /// Interactions between convergence probes.
    pub fn check_every(&self) -> u64 {
        let n = self.n as u64;
        match self.kind {
            Kind::Epidemic => n,
            Kind::CountExact | Kind::CountExactSeq => 20 * n,
        }
    }

    /// Interactions after which a run counts as failed.
    pub fn budget(&self) -> u64 {
        self.check_every() * MAX_CHUNKS
    }

    /// Whether a unanimous `output` is a correct answer.
    pub fn accepts(&self, output: i64) -> bool {
        match self.kind {
            Kind::Epidemic => output == 1,
            Kind::CountExact | Kind::CountExactSeq => output == self.n as i64,
        }
    }
}

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// The run seeds: `⌊seconds / nominal⌋` of them (a quarter of that when
    /// traced, which runs each seed two or three times), at least one.
    pub fn seeds(&self) -> Vec<u64> {
        let k = (self.seconds / self.workload.nominal_seed_s).floor() as u64;
        let k = if self.trace { k / 4 } else { k };
        (0..k.max(1)).map(|i| derive_seed(self.seed, i)).collect()
    }
}

/// One named metric value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one invocation.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed besides wrong outputs (trajectory identity, span
    /// coverage); any makes the result incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Sample counts behind the medians.
    pub samples: Vec<(&'static str, usize)>,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count one run and check its output.
    fn check(&mut self, w: &Workload, seed: u64, output: Option<i64>) {
        self.attempted += 1;
        match output {
            Some(v) if w.accepts(v) => {}
            Some(v) => {
                self.failed += 1;
                eprintln!("{}: seed {seed} converged to a wrong output {v}", w.name);
            }
            None => {
                self.failed += 1;
                eprintln!("{}: seed {seed} exhausted its budget", w.name);
            }
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Sample counts, problems and provenance, printed before the result.
    pub fn info_json(&self, cfg: &Config, provenance: &[(&str, String)]) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"n\": {}, \"trace\": {}, \"samples\": {{",
            cfg.workload.name, cfg.workload.n, cfg.trace
        );
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&samples.join(", "));
        out.push_str("}, \"problems\": [");
        let problems: Vec<String> = self.problems.iter().map(|p| json_string(p)).collect();
        out.push_str(&problems.join(", "));
        out.push_str("], \"provenance\": {");
        let fields: Vec<String> = provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_string(v)))
            .collect();
        out.push_str(&fields.join(", "));
        out.push_str("}}");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Thread count of the sharded runs: two, capped at `nproc`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

/// δ probe of one capture on a fresh protocol instance.
type DeltaProbe<'a> = &'a dyn Fn(&Capture) -> Result<DeltaSample, SimError>;
/// The library's own runner for a seed: its interactions and output.
type Reference<'a> = &'a dyn Fn(u64) -> Result<(u64, Option<i64>), SimError>;

/// How [`bench`] builds and checks one workload's engine.
struct Spec<'a, D> {
    /// Construct the engine for `(seed, threads)`, ready for its first
    /// interaction.
    build: &'a dyn Fn(u64, usize) -> Result<D, SimError>,
    /// Threads of the timed runs; above 1 the traced run also times one
    /// thread, in lockstep, for `sharded.scaling_eff`.
    threads: usize,
    /// Population one collision draw covers (`n`, or `n / SHARDS`).
    block_n: u64,
    /// δ probe on a fresh protocol instance; `None` off the dense engines.
    delta: Option<DeltaProbe<'a>>,
    /// The library's own runner for `seed`: interactions and output.
    reference: Option<Reference<'a>>,
}

/// Run the configured workload.
///
/// # Errors
///
/// Propagates engine construction and protocol-state restore errors.
pub fn run(cfg: &Config) -> Result<Report, SimError> {
    let w = cfg.workload;
    let n = w.n;
    match w.kind {
        Kind::Epidemic => {
            let build = |seed: u64, threads: usize| {
                let engine = Engine::Sharded {
                    shards: SHARDS,
                    threads,
                };
                let mut sim = DenseSimulator::new(engine, DenseEpidemic, n, seed)?;
                sim.transfer(0, 1, 1)?;
                Ok(sim)
            };
            let delta = |c: &Capture| probe::delta(&DenseEpidemic, c);
            bench(
                cfg,
                &Spec {
                    build: &build,
                    threads: threads(),
                    block_n: (n / SHARDS) as u64,
                    delta: Some(&delta),
                    reference: None,
                },
            )
        }
        Kind::CountExact => {
            let params = CountExactParams::dense_at_scale(n);
            let proto =
                || DenseCountExact::with_capacity(params, CountExactParams::dense_capacity(n));
            let config = HybridConfig {
                substrate: HybridSubstrate::Batched,
                ..HybridConfig::default()
            };
            let build =
                |seed: u64, _: usize| HybridSimulator::with_config(proto(), n, seed, config);
            let delta = |c: &Capture| probe::delta(&proto(), c);
            let reference = |seed: u64| {
                count_exact_dense_staged(params, n, seed, Engine::Batched, w.budget())
                    .map(|o| (o.interactions, o.output.value()))
            };
            bench(
                cfg,
                &Spec {
                    build: &build,
                    threads: 0,
                    block_n: n as u64,
                    delta: Some(&delta),
                    reference: Some(&reference),
                },
            )
        }
        Kind::CountExactSeq => {
            let params = CountExactParams::dense_at_scale(n);
            let build = |seed: u64, _: usize| Simulator::new(CountExact::new(params), n, seed);
            let reference = |seed: u64| {
                count_exact_dense_staged(params, n, seed, Engine::Auto, w.budget())
                    .map(|o| (o.interactions, o.output.value()))
            };
            bench(
                cfg,
                &Spec {
                    build: &build,
                    threads: 0,
                    block_n: n as u64,
                    delta: None,
                    reference: Some(&reference),
                },
            )
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One untraced seed.
#[derive(Debug, Clone, Copy)]
struct Timed {
    seed: u64,
    wall_s: f64,
    interactions: u64,
    output: Option<i64>,
}

fn bench<D: Driven>(cfg: &Config, spec: &Spec<D>) -> Result<Report, SimError> {
    let w = cfg.workload;
    let mut report = Report::default();
    let mut timed = Vec::new();
    if cfg.trace {
        let mut traced = Traced::default();
        for seed in cfg.seeds() {
            timed.push(traced.seed(&w, spec, seed, &mut report)?);
        }
        report.samples.push(("seeds", timed.len()));
        traced.finish(cfg, spec, &timed, &mut report)?;
        return Ok(report);
    }
    let mut setups = Vec::new();
    for seed in cfg.seeds() {
        let start = Instant::now();
        let mut sim = (spec.build)(seed, spec.threads)?;
        setups.push(start.elapsed().as_secs_f64());
        let d = drive(&mut sim, w.check_every(), w.budget());
        drop(sim);
        report.check(&w, seed, d.output);
        timed.push(Timed {
            seed,
            wall_s: d.wall_s,
            interactions: d.interactions,
            output: d.output,
        });
    }
    report.samples.push(("seeds", timed.len()));
    for i in 0.. {
        if setups.len() >= MIN_SETUPS {
            break;
        }
        let start = Instant::now();
        let sim = (spec.build)(derive_seed(cfg.seed, SETUP_STREAM + i), spec.threads)?;
        setups.push(start.elapsed().as_secs_f64());
        drop(sim);
    }
    report.samples.push(("setups", setups.len()));
    let walls: Vec<f64> = timed.iter().map(|t| t.wall_s).collect();
    let interactions: u64 = timed.iter().map(|t| t.interactions).sum();
    report.push("setup_s", median(&setups), "s");
    report.push("wall_s", median(&walls), "s");
    report.push(
        "mips",
        interactions as f64 / walls.iter().sum::<f64>() / 1e6,
        "M/s",
    );
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(report)
}

/// Sums over the traced seeds of what the engine reports at the end; the
/// epoch length, the same for every seed, is kept once.
#[derive(Debug, Default)]
struct EndCounts {
    interactions: u64,
    switches: u64,
    dense_interactions: u64,
    discovered_states: u64,
    epoch_interactions: u64,
}

/// Span names whose self time is a layer's, inside a traced `chunk` span.
const LAYER_SPANS: [&str; 6] = [
    "batched.run",
    "sharded.run",
    "stint.run",
    "simulator.run",
    SWITCH_CHUNK,
    "config.output_stats",
];

/// The traced run's spans, captures and end-of-run counts.
#[derive(Debug, Default)]
struct Traced {
    tracer: Tracer,
    captures: Vec<Capture>,
    end: EndCounts,
    /// Untraced seconds of the same seeds on one thread.
    one_thread_s: f64,
    /// The untraced time of each traced chunk, in the order of the spans.
    untraced_chunk_ns: Vec<u64>,
}

impl Traced {
    /// Run `seed` untraced and traced in lockstep (and, for
    /// `sharded.scaling_eff`, on one thread), check that every engine
    /// reaches the same end, and return the untraced run.
    fn seed<D: Driven>(
        &mut self,
        w: &Workload,
        spec: &Spec<D>,
        seed: u64,
        report: &mut Report,
    ) -> Result<Timed, SimError> {
        let mut plain = vec![(spec.build)(seed, spec.threads)?];
        if spec.threads > 1 {
            plain.push((spec.build)(seed, 1)?);
        }
        let tracer = &mut self.tracer;
        tracer.set_run(seed);
        let mut sim = tracer.span("setup", || (spec.build)(seed, spec.threads))?;
        let l = drive_lockstep(&mut plain, &mut sim, w.check_every(), w.budget(), tracer);
        let d = l.plain[0];
        report.check(w, seed, d.output);
        let untraced = (d.interactions, d.output);
        if l.traced != untraced {
            report.problems.push(format!(
                "traced seed {seed} ran {} interactions to {:?}, untraced {} to {:?}",
                l.traced.0, l.traced.1, d.interactions, d.output
            ));
        }
        if let Some(one) = l.plain.get(1) {
            if (one.interactions, one.output) != untraced {
                report.problems.push(format!(
                    "seed {seed} on one thread ran {} interactions, on {} threads {}",
                    one.interactions, spec.threads, d.interactions
                ));
            }
            self.one_thread_s += one.wall_s;
        }
        self.captures.extend(l.captures);
        self.untraced_chunk_ns.extend(l.untraced_chunk_ns);
        let end = &mut self.end;
        end.interactions += l.traced.0;
        end.switches += sim.switches() as u64;
        end.dense_interactions += sim.dense_interactions();
        end.discovered_states += sim.discovered_states();
        end.epoch_interactions = sim.epoch_interactions();
        Ok(Timed {
            seed,
            wall_s: d.wall_s,
            interactions: d.interactions,
            output: d.output,
        })
    }

    /// The library-runner check, the probes, and the per-layer metrics.
    fn finish<D: Driven>(
        self,
        cfg: &Config,
        spec: &Spec<D>,
        timed: &[Timed],
        report: &mut Report,
    ) -> Result<(), SimError> {
        let Traced {
            mut tracer,
            captures,
            end,
            one_thread_s,
            untraced_chunk_ns,
        } = self;
        let untraced_s: f64 = timed.iter().map(|t| t.wall_s).sum();
        let scaling_eff = match spec.threads {
            // No sharded engine runs.
            0 => 0.0,
            // With one core, one thread is the whole machine.
            1 => 1.0,
            threads => one_thread_s / (threads as f64 * untraced_s),
        };

        if let (Some(reference), Some(first)) = (spec.reference, timed.first()) {
            let (interactions, output) = reference(first.seed)?;
            if (interactions, output) != (first.interactions, first.output) {
                report.problems.push(format!(
                    "seed {}: the library runner ran {interactions} interactions to {output:?}, \
                     the benchmark's chunk loop {} to {:?}",
                    first.seed, first.interactions, first.output
                ));
            }
        }

        let mut delta = DeltaSample::default();
        let mut rng = seeded_rng(derive_seed(cfg.seed, PROBE_STREAM));
        tracer.set_run(cfg.seed);
        for c in &captures {
            if let Some(probe) = spec.delta {
                delta.add(tracer.span("dense.delta", || probe(c))?);
            }
            let id = tracer.open("sample.collision");
            probe::collision(&mut rng, spec.block_n, SAMPLE_REPS);
            tracer.close(id, SAMPLE_REPS, 0);
            let id = tracer.open("sample.mvhg");
            probe::mvhg(&mut rng, c, SAMPLE_REPS);
            tracer.close(id, SAMPLE_REPS, c.occupied.len() as u64);
            let id = tracer.open("sample.hypergeom");
            probe::hypergeom(&mut rng, c, SAMPLE_REPS);
            tracer.close(id, SAMPLE_REPS, 0);
        }

        let tot = tracer.totals();
        let get = |name: &str| tot.get(name).copied().unwrap_or_default();
        let seeds = timed.len() as f64;
        let per_seed_s = |name: &str| get(name).self_ns as f64 / 1e9 / seeds;
        let ns_per = |t: Totals| t.self_ns as f64 / t.count as f64;
        let traced_ns = get("chunk").duration_ns - get("bench.capture").duration_ns;
        // Held against the untraced time of the same chunk, the layer self
        // times show time the spans miss, misattribute or add.  The median
        // over chunks keeps a stall of the shared machine that hits one
        // engine during one chunk from counting.
        let layer_ns = chunk_layer_ns(&tracer);
        if layer_ns.len() == untraced_chunk_ns.len() {
            let ratios: Vec<f64> = layer_ns
                .iter()
                .zip(&untraced_chunk_ns)
                .map(|(&l, &u)| l as f64 / u.max(1) as f64)
                .collect();
            let coverage = median(&ratios);
            if (coverage - 1.0).abs() > 0.05 {
                report.problems.push(format!(
                    "layer self times per chunk are a median {coverage:.4} of the untraced \
                     time of the same chunk, outside 1 ± 0.05"
                ));
            }
        } else {
            report.problems.push(format!(
                "{} traced chunks, {} untraced",
                layer_ns.len(),
                untraced_chunk_ns.len()
            ));
        }
        let epochs = get("sharded.run").count as f64 / end.epoch_interactions as f64;
        let (batched, stint) = (get("batched.run"), get("stint.run"));

        report.push("sample.collision_ns", ns_per(get("sample.collision")), "ns");
        report.push("sample.mvhg_ns", ns_per(get("sample.mvhg")), "ns");
        report.push("sample.hypergeom_ns", ns_per(get("sample.hypergeom")), "ns");
        report.push("batched.s", per_seed_s("batched.run"), "s");
        report.push(
            "batched.interactions",
            batched.count as f64 / seeds,
            "count",
        );
        report.push("batched.ns_per_int", ns_per(batched), "ns");
        report.push(
            "batched.q_occ_mean",
            batched.q_occ_sum as f64 / batched.spans as f64,
            "count",
        );
        report.push("batched.q_occ_max", batched.q_occ_max as f64, "count");
        report.push("sharded.s", per_seed_s("sharded.run"), "s");
        report.push(
            "sharded.interactions",
            get("sharded.run").count as f64 / seeds,
            "count",
        );
        report.push("sharded.epochs", epochs / seeds, "count");
        report.push(
            "sharded.ns_per_epoch",
            get("sharded.run").self_ns as f64 / epochs,
            "ns",
        );
        report.push("sharded.scaling_eff", scaling_eff, "ratio");
        report.push("hybrid.switches", end.switches as f64 / seeds, "count");
        report.push(
            "hybrid.dense_frac",
            end.dense_interactions as f64 / end.interactions as f64,
            "ratio",
        );
        report.push("hybrid.switch_chunk_s", per_seed_s(SWITCH_CHUNK), "s");
        report.push("stint.s", per_seed_s("stint.run"), "s");
        report.push("stint.interactions", stint.count as f64 / seeds, "count");
        report.push("stint.ns_per_int", ns_per(stint), "ns");
        report.push(
            "stint.q_occ_mean",
            stint.q_occ_sum as f64 / stint.spans as f64,
            "count",
        );
        report.push("simulator.s", per_seed_s("simulator.run"), "s");
        report.push("simulator.ns_per_int", ns_per(get("simulator.run")), "ns");
        report.push("dense.delta_ns", delta.ns as f64 / delta.evals as f64, "ns");
        report.push(
            "dense.null_frac",
            delta.null_weight / delta.pair_weight,
            "ratio",
        );
        report.push(
            "interned.states",
            end.discovered_states as f64 / seeds,
            "count",
        );
        report.push("config.stats_s", per_seed_s("config.output_stats"), "s");
        report.push("run.interactions", end.interactions as f64 / seeds, "count");
        report.push(
            "run.fail_frac",
            report.failed as f64 / report.attempted as f64,
            "ratio",
        );
        report.push(
            "trace.overhead_frac",
            traced_ns as f64 / 1e9 / untraced_s - 1.0,
            "ratio",
        );
        report.samples.push(("captures", captures.len()));
        report.samples.push(("spans", tracer.spans().len()));
        report.tracer = Some(tracer);
        Ok(())
    }
}

/// The summed self times of the layer spans in each `chunk` root span, in
/// order.
fn chunk_layer_ns(tracer: &Tracer) -> Vec<u64> {
    let spans = tracer.spans();
    let mut out: Vec<u64> = Vec::new();
    for (span, own) in spans.iter().zip(tracer.self_ns()) {
        if span.parent.is_none() && span.name == "chunk" {
            out.push(0);
        } else if LAYER_SPANS.contains(&span.name)
            && span.parent.is_some_and(|p| spans[p].name == "chunk")
        {
            if let Some(last) = out.last_mut() {
                *last += own;
            }
        }
    }
    out
}

/// `nproc`, CPU model, `rustc -V`, git sha and master seed.
pub fn provenance(master_seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".into(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("git_sha", git_sha().unwrap_or_else(|| "unknown".into())),
        ("master_seed", master_seed.to_string()),
    ]
}

/// The commit checked out in the working directory, read from `.git`
/// directly (the benchmark may run in a copy that is no repository).
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(sha.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_and_missing_outputs_count_as_failures() {
        let ce = Workload::by_name("countexact-1e4").expect("known");
        let epi = Workload::by_name("epidemic-1e9").expect("known");
        let mut r = Report::default();
        r.check(&ce, 1, Some(10_000));
        r.check(&ce, 2, Some(9_999));
        r.check(&ce, 3, None);
        r.check(&epi, 4, Some(1));
        r.check(&epi, 5, None);
        assert_eq!((r.attempted, r.failed), (5, 3));
        assert!(!r.correct());
        assert!(r
            .result_json()
            .starts_with("{\"correct\": false, \"attempted\": 5, \"failed\": 3,"));
    }

    #[test]
    fn seed_count_follows_the_run_length() {
        let epi = Workload::by_name("epidemic-1e9").expect("known");
        let cfg = |seconds, trace| Config {
            workload: epi,
            seed: 3,
            seconds,
            trace,
        };
        assert_eq!(cfg(0.1, false).seeds().len(), 1);
        assert_eq!(cfg(3.1, false).seeds().len(), 10);
        assert_eq!(cfg(3.1, true).seeds().len(), 2);
        assert_eq!(cfg(3.1, false).seeds()[..2], cfg(3.1, true).seeds()[..]);
    }
}
