//! `static-lj`: one static partitioning run on the LiveJournal analog.
//!
//! Streamed ingest, initial placement state, then a single-process
//! trainer at fixed sample rate 1.0 for the paper's 10-step horizon, then
//! PageRank on the trained plan. Ingest and the score/migrate kernel do
//! almost all the work; there is no durability or serving.

use geograph::degree::suggest_theta;
use geograph::locality::LocalityConfig;
use geograph::stream::{build_chunked, ScopedPool, StreamConfig};
use geograph::{Dataset, DcId, GeoGraph, IngestReport};
use geopart::{HybridState, TrafficProfile};
use geosim::regions::ec2_eight_regions;
use geosim::CloudEnv;
use rlcut::{RlCutConfig, TrainerSession};

use super::{
    check_plan, record_sessions, repeat_training, run_engine, secs, sessions_for, timed,
    train_session, SETUP_REPS, STEPS,
};
use crate::inputs::{self, MemChunks};
use crate::outcome::Outcome;
use crate::{trace, Args, MAX_THREADS};

/// About 194k vertices and 2.6M edges. At scale 0.1 (485k vertices) the
/// ~47 MB placement state made the sequential migrate phase swing with
/// other tenants' use of the host's shared cache: `train_s` spread 28%
/// across ten runs, over the 0.25 bound.
pub const SCALE: f64 = 0.04;
/// Nominal session time on the reference host (2 vCPUs); one session per
/// 5.5 s of `--seconds`.
const SESSION_S: f64 = 5.5;

/// A built, located graph and what its set-up measured.
pub struct Prepared {
    pub geo: GeoGraph,
    pub ingest: IngestReport,
    pub theta: usize,
    pub budget: f64,
}

/// One set-up: ingest, locate, derive θ and the budget, build the initial
/// placement state. Returns the graph and the state's heap bytes.
pub fn prepare(
    out: &mut Outcome,
    chunks: &MemChunks,
    env: &CloudEnv,
    seed: u64,
    times: &mut SetupTimes,
) -> Option<(Prepared, usize)> {
    let pool = ScopedPool(MAX_THREADS);
    let (built, ingest) =
        trace::span("geograph.ingest", || build_chunked(chunks, StreamConfig::cleaned(), &pool));
    out.op(built.is_ok());
    let (graph, report) = match built {
        Ok(b) => b,
        Err(e) => {
            eprintln!("  ingest failed: {e}");
            return None;
        }
    };
    trace::count("edges", report.edges as f64);
    times.ingest.push(secs(ingest));
    let (geo, locate) = trace::span("geograph.locate", || {
        GeoGraph::from_graph(graph, &LocalityConfig::paper_default(seed))
    });
    times.locate.push(secs(locate));
    let theta = suggest_theta(&geo.graph, 0.05);
    let budget = geosim::cost::default_budget(env, &geo.locations, &geo.data_sizes, 0.4);
    let prepared = Prepared { geo, ingest: report, theta, budget };
    let state_bytes = initial_state(&prepared, env, times).heap_bytes();
    Some((prepared, state_bytes))
}

/// The natural-placement state training starts from.
pub fn initial_state<'g>(
    prepared: &'g Prepared,
    env: &CloudEnv,
    times: &mut SetupTimes,
) -> HybridState<'g> {
    let geo = &prepared.geo;
    let (state, wall) = trace::span("geopart.from_masters", || {
        let masters: Vec<DcId> = geo.locations.clone();
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        HybridState::from_masters(geo, env, masters, prepared.theta, profile, 10.0)
    });
    times.from_masters.push(secs(wall));
    state
}

/// Wall times of the set-up calls, one entry per call.
#[derive(Default)]
pub struct SetupTimes {
    pub setup: Vec<f64>,
    pub ingest: Vec<f64>,
    pub locate: Vec<f64>,
    pub shard_ingest: Vec<f64>,
    pub from_masters: Vec<f64>,
}

impl SetupTimes {
    pub fn record(&self, out: &mut Outcome, prepared: &Prepared, state_bytes: usize) {
        let ingest_s = trace::median(&self.ingest);
        let report = &prepared.ingest;
        out.set("setup_s", trace::median(&self.setup));
        out.set("geograph.ingest_s", ingest_s);
        out.set("geograph.ingest_edges_per_s", report.raw_edges as f64 / ingest_s.max(1e-12));
        out.set("geograph.ingest_peak_over_final", report.build_ratio());
        out.set(
            "geograph.csr_bytes_per_edge",
            report.csr_bytes as f64 / report.edges.max(1) as f64,
        );
        out.set("geograph.locate_s", trace::median(&self.locate));
        if !self.shard_ingest.is_empty() {
            out.set("geograph.shard_ingest_s", trace::median(&self.shard_ingest));
        }
        out.set("geopart.from_masters_s", trace::median(&self.from_masters));
        out.set("geopart.state_bytes", state_bytes as f64);
    }
}

/// Fixed rate 1.0 for the full horizon: convergence is off, so every seed
/// trains exactly [`STEPS`] steps and the work per run does not depend on
/// where a seed happens to converge.
pub fn config(prepared: &Prepared, seed: u64) -> RlCutConfig {
    let mut config = RlCutConfig::new(prepared.budget)
        .with_seed(seed)
        .with_threads(MAX_THREADS)
        .with_theta(prepared.theta)
        .with_fixed_sample_rate(1.0)
        .with_max_steps(STEPS);
    config.convergence_fraction = 0.0;
    config
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (chunks, gen_s) =
        timed(|| inputs::rmat_dataset(Dataset::LiveJournal, SCALE, args.seed, MAX_THREADS));
    out.set("bench.input_gen_s", gen_s);
    let env = ec2_eight_regions();

    let mut times = SetupTimes::default();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        trace::new_run();
        drop(kept.take()); // free the previous set-up's graph first
        let (prepared, setup_s) = timed(|| prepare(&mut out, &chunks, &env, args.seed, &mut times));
        times.setup.push(setup_s);
        kept = prepared;
    }
    let Some((prepared, state_bytes)) = kept else { return out };
    eprintln!(
        "  LJ analog: {} vertices, {} edges",
        prepared.geo.num_vertices(),
        prepared.geo.num_edges()
    );
    let config = config(&prepared, args.seed);

    let mut sessions = Vec::new();
    let trained =
        repeat_training(&mut out, sessions_for(args.seconds, SESSION_S), &mut sessions, |out| {
            let state = initial_state(&prepared, &env, &mut times);
            train_session(out, &env, || {
                Ok(TrainerSession::new(&prepared.geo, &env, state, config.clone()))
            })
        });
    times.record(&mut out, &prepared, state_bytes);
    let Some(result) = trained else { return out };
    record_sessions(&mut out, &sessions);
    check_plan(&mut out, &result, &env, prepared.budget);
    run_engine(&mut out, &prepared.geo, &env, result.state.core());
    out
}
