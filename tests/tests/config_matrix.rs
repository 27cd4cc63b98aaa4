//! Config-matrix differential test: every `RlCutConfig` knob must mean the
//! same thing on every training path.
//!
//! Each knob is varied on its own from a pinned base config, at a fixed
//! sample rate (the Eq 14 `t_opt` schedule reads wall-clock time, so an
//! adaptive rate could legitimately differ between runs). For every
//! variant, two groups of paths must agree on the trained masters and on
//! the bits of the Eq 4 movement-cost accumulator:
//!
//! * static: `TrainerSession`, and `ShardedTrainer` at 1, 2 and 4 shards;
//! * windowed (window 0 plus one delta window): `AdaptiveRlCut` plain and
//!   `with_shards(2)`, and a `DurableAdaptive` dropped after window 0 and
//!   recovered from its store before the delta window.

use std::time::Duration;

use geograph::dynamic::{apply_events, split_for_dynamic};
use geograph::generators::preferential::preferential_attachment_edges;
use geograph::locality::{assign_locations, LocalityConfig};
use geograph::{DcId, GeoGraph, GraphBuilder, GraphDelta};
use geopart::{HybridState, PlacementState, TrafficProfile};
use geosim::regions::ec2_eight_regions;
use geosim::CloudEnv;
use rlcut::config::SampleStrategy;
use rlcut::observer::NoopObserver;
use rlcut::{AdaptiveRlCut, DurableAdaptive, RlCutConfig, ShardedTrainer, TrainerSession};

const N: usize = 512;
const THETA: usize = 8;
const T_OPT: Duration = Duration::from_secs(60);

/// Trained masters plus the movement-cost bits.
type Outcome = (Vec<DcId>, u64);

fn outcome(core: &PlacementState) -> Outcome {
    (core.masters().to_vec(), core.movement_cost().to_bits())
}

/// The 512-vertex graph before and after its one delta window.
struct Workload {
    geo0: GeoGraph,
    geo1: GeoGraph,
    delta: GraphDelta,
}

fn workload() -> Workload {
    let edges = preferential_attachment_edges(N, 3, 41);
    let (initial, stream) = split_for_dynamic(&edges, N, 0.6, 10_000);
    let full = {
        let mut b = GraphBuilder::new(N);
        b.add_edges(initial.edges());
        apply_events(&mut b, stream.events());
        b.build()
    };
    let cfg = LocalityConfig::paper_default(41);
    let locations = assign_locations(&full, &cfg);
    let sizes = vec![2048u64; full.num_vertices()];
    let delta = GraphDelta::from_events(&initial, stream.events());
    let next = initial.apply_delta(&delta);
    let geo_of = |graph: geograph::Graph| {
        let n = graph.num_vertices();
        GeoGraph::new(graph, locations[..n].to_vec(), sizes[..n].to_vec(), cfg.num_dcs)
    };
    Workload { geo0: geo_of(initial), geo1: geo_of(next), delta }
}

/// The pinned base every variant starts from.
fn base(seed: u64, threads: usize) -> RlCutConfig {
    RlCutConfig::new(1.0)
        .with_seed(seed)
        .with_threads(threads)
        .with_theta(THETA)
        .with_fixed_sample_rate(0.5)
        .with_max_steps(3)
}

/// One knob varied at a time, over two seeds and two thread counts.
fn variants() -> Vec<(String, RlCutConfig)> {
    let mut out = Vec::new();
    for seed in [1u64, 2] {
        for threads in [1usize, 2] {
            let b = || base(seed, threads);
            let tag = |knob: &str| format!("seed {seed}, {threads} threads, {knob}");
            out.push((tag("base"), b()));
            out.push((tag("max_scan 64"), b().with_max_scan(64)));
            out.push((tag("batch 1"), b().with_batch_size(1)));
            out.push((tag("batch 48"), b().with_batch_size(48)));
            let mut penalty = b();
            penalty.use_penalty = true;
            out.push((tag("penalty"), penalty));
            let mut recency = b();
            recency.sampling_recency = Some(0.5);
            out.push((tag("recency"), recency));
            let mut random = b();
            random.sample_strategy = SampleStrategy::Random;
            out.push((tag("random sampling"), random));
            let mut round_robin = b();
            round_robin.disable_straggler_mitigation = true;
            out.push((tag("no straggler mitigation"), round_robin));
        }
    }
    out
}

fn initial_state<'g>(geo: &'g GeoGraph, env: &CloudEnv) -> HybridState<'g> {
    let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
    HybridState::from_masters(geo, env, geo.locations.clone(), THETA, profile, 10.0)
}

fn train_local(geo: &GeoGraph, env: &CloudEnv, config: &RlCutConfig) -> Outcome {
    let mut session = TrainerSession::new(geo, env, initial_state(geo, env), config.clone());
    let Ok(()) = session.run(env, &mut NoopObserver);
    outcome(session.finish(env).state.core())
}

fn train_sharded(geo: &GeoGraph, env: &CloudEnv, config: &RlCutConfig, shards: usize) -> Outcome {
    let state = initial_state(geo, env);
    let mut trainer = ShardedTrainer::new(geo, env, state, config.clone(), shards).unwrap();
    trainer.run(env, &mut NoopObserver).unwrap();
    outcome(trainer.finish(env).state.core())
}

fn train_windows(w: &Workload, env: &CloudEnv, mut adaptive: AdaptiveRlCut) -> Outcome {
    let p0 = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
    adaptive.on_window(&w.geo0, env, p0, 10.0, T_OPT).unwrap();
    let p1 = TrafficProfile::uniform(w.geo1.num_vertices(), 8.0);
    adaptive.on_window_delta(&w.geo1, env, &w.delta, p1, 10.0, T_OPT).unwrap();
    outcome(&adaptive.carried_parts().unwrap().0)
}

fn train_durable(w: &Workload, env: &CloudEnv, config: &RlCutConfig, case: usize) -> Outcome {
    let dir = std::env::temp_dir().join(format!("rlcut_matrix_{case}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p0 = TrafficProfile::uniform(w.geo0.num_vertices(), 8.0);
    let mut durable =
        DurableAdaptive::create(&dir, config.clone(), Some(0.4), w.geo0.clone(), env, 0).unwrap();
    durable.window(env, None, &[], &[], p0, 10.0, T_OPT).unwrap();
    drop(durable);
    let (mut durable, _) =
        DurableAdaptive::recover(&dir, config.clone(), Some(0.4), env, 0).unwrap();
    let (old_n, new_n) = (w.geo0.num_vertices(), w.geo1.num_vertices());
    let locations = &w.geo1.locations[old_n..new_n];
    let sizes = &w.geo1.data_sizes[old_n..new_n];
    let p1 = TrafficProfile::uniform(new_n, 8.0);
    durable.window(env, Some(&w.delta), locations, sizes, p1, 10.0, T_OPT).unwrap();
    let trained = outcome(&durable.inner().carried_parts().unwrap().0);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    trained
}

#[test]
fn every_knob_trains_the_same_plan_on_every_path() {
    let w = workload();
    let env = ec2_eight_regions();
    let budget = geosim::cost::default_budget(&env, &w.geo1.locations, &w.geo1.data_sizes, 0.4);
    for (case, (name, config)) in variants().into_iter().enumerate() {
        let mut static_config = config.clone();
        static_config.budget = budget;
        let local = train_local(&w.geo1, &env, &static_config);
        assert_ne!(local.0, w.geo1.locations, "{name}: nothing migrated; the case is vacuous");
        for shards in [1usize, 2, 4] {
            let sharded = train_sharded(&w.geo1, &env, &static_config, shards);
            assert_eq!(local, sharded, "{name}: {shards} shards diverged from TrainerSession");
        }

        let plain = train_windows(&w, &env, AdaptiveRlCut::new(config.clone(), Some(0.4)));
        let sharded =
            train_windows(&w, &env, AdaptiveRlCut::new(config.clone(), Some(0.4)).with_shards(2));
        assert_eq!(plain, sharded, "{name}: AdaptiveRlCut with_shards(2) diverged");
        let recovered = train_durable(&w, &env, &config, case);
        assert_eq!(plain, recovered, "{name}: recovered DurableAdaptive diverged");
    }
}
