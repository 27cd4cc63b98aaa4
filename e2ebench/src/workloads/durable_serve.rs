//! `durable-serve-lj`: durable dynamic windows with live serving.
//!
//! A preferential-attachment growth stream on the LiveJournal analog.
//! Window 0 is committed and the writer dropped; the server boots from
//! the store and the trainer recovers. Delta windows then run as a closed
//! loop (the next delta goes in after the previous one commits), with tiny
//! training per window, a commit hook of the benchmark's own that flips
//! the served routing table, and snapshots cut by the benchmark. One
//! reader thread serves closed-loop Zipf(0.99) batch-256 lookups
//! throughout. The run ends with a crash and restarts, then PageRank on
//! the served plan. Per-window costs dominate; ingest and the training
//! kernel do little.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use geograph::degree::suggest_theta;
use geograph::dynamic::split_for_dynamic;
use geograph::generators::preferential::preferential_attachment_edges;
use geograph::locality::{assign_locations, LocalityConfig};
use geograph::{Dataset, DcId, GeoGraph, Graph, GraphDelta, VertexId};
use geopart::TrafficProfile;
use geoserve::{PlacementServer, PlanBoard, RoutingTable};
use geosim::regions::ec2_eight_regions;
use geosim::CloudEnv;
use rlcut::{DurableAdaptive, RlCutConfig};

use super::{run_engine, secs, timed};
use crate::inputs::zipf_ring;
use crate::outcome::Outcome;
use crate::trace::{self, Hist};
use crate::Args;

/// About 97k vertices.
pub const SCALE: f64 = 0.02;
/// Edge insertions per delta window.
const EVENTS_PER_WINDOW: usize = 1000;
/// Delta windows per second of `--seconds`, so the window count (and with
/// it the final plan) is fixed by the arguments, not by machine speed.
const WINDOWS_PER_SECOND: f64 = 25.0;
/// Share of the stream's edges in the initial graph; the rest arrive as
/// delta windows.
const INITIAL_FRACTION: f64 = 0.6;
const SNAPSHOT_EVERY: usize = 32;
/// Committed windows past the last snapshot when the process crashes.
const WAL_TAIL: usize = 6;
/// Set-ups per run (each is cheap); `setup_s` is their median.
const SETUP_REPS: u32 = 9;
/// Crash restarts per run; `recover_s` is their median.
const RESTARTS: u32 = 3;
const BATCH: usize = 256;
const RING: usize = 1 << 20;
/// Every this many lookup batches, one response is kept (as a hash) and
/// checked at the end.
const SAMPLE_EVERY: u64 = 4096;
const BUDGET_FRACTION: f64 = 0.4;
const T_OPT: Duration = Duration::from_secs(60);

struct Inputs {
    initial: Graph,
    deltas: Vec<GraphDelta>,
    locations: Vec<DcId>,
    sizes: Vec<u64>,
    theta: usize,
    ring: Vec<VertexId>,
}

fn make_inputs(seed: u64, windows: usize) -> Inputs {
    let lj = Dataset::LiveJournal;
    let n = lj.scaled_vertices(SCALE);
    let epv = (lj.paper_edges() as f64 / lj.paper_vertices() as f64).round() as usize;
    let edges = preferential_attachment_edges(n, epv, seed);
    let streamed = edges.len() - (edges.len() as f64 * INITIAL_FRACTION) as usize;
    // One event per millisecond, so a window of EVENTS_PER_WINDOW ms holds
    // that many events.
    let (initial, stream) = split_for_dynamic(&edges, n, INITIAL_FRACTION, streamed as u64);
    let mut graph = initial.clone();
    let mut deltas = Vec::with_capacity(windows);
    for events in stream.windows(EVENTS_PER_WINDOW as u64).take(windows) {
        let delta = GraphDelta::from_events(&graph, events);
        graph = graph.apply_delta(&delta);
        deltas.push(delta);
    }
    let locations = assign_locations(&graph, &LocalityConfig::paper_default(seed));
    let sizes = vec![65536; graph.num_vertices()];
    let theta = suggest_theta(&graph, 0.05);
    let ring = zipf_ring(initial.num_vertices(), 0.99, RING, seed);
    Inputs { initial, deltas, locations, sizes, theta, ring }
}

fn config(inputs: &Inputs, seed: u64) -> RlCutConfig {
    RlCutConfig::new(1.0)
        .with_seed(seed)
        .with_threads(1)
        .with_theta(inputs.theta)
        .with_fixed_sample_rate(0.01)
        .with_max_steps(1)
}

/// One set-up in a fresh store: create, commit window 0, drop the writer,
/// boot the server from the store, recover the trainer.
fn setup(
    out: &mut Outcome,
    inputs: &Inputs,
    env: &CloudEnv,
    dir: &Path,
    seed: u64,
) -> Option<(DurableAdaptive, PlacementServer, f64)> {
    let _ = std::fs::remove_dir_all(dir);
    let n0 = inputs.initial.num_vertices();
    let geo0 = GeoGraph::new(
        inputs.initial.clone(),
        inputs.locations[..n0].to_vec(),
        inputs.sizes[..n0].to_vec(),
        env.num_dcs(),
    );
    let profile = TrafficProfile::uniform(n0, 8.0);
    let config = config(inputs, seed);
    let t0 = Instant::now();
    let (created, _) = trace::span("geodur.create", || {
        DurableAdaptive::create(dir, config.clone(), Some(BUDGET_FRACTION), geo0, env, 0)
    });
    out.op(created.is_ok());
    let mut writer = created.map_err(|e| eprintln!("  create failed: {e}")).ok()?;
    let (committed, _) =
        trace::span("rlcut.window", || writer.window(env, None, &[], &[], profile, 10.0, T_OPT));
    out.op(committed.is_ok());
    committed.map_err(|e| eprintln!("  window 0 failed: {e}")).ok()?;
    drop(writer);
    let (booted, _) = trace::span("geoserve.boot", || PlacementServer::boot_from_store(dir, env));
    out.op(booted.is_ok());
    let (server, boot) = booted.map_err(|e| eprintln!("  boot failed: {e}")).ok()?;
    let (recovered, _) = trace::span("geodur.recover", || {
        DurableAdaptive::recover(dir, config, Some(BUDGET_FRACTION), env, 0)
    });
    out.op(recovered.is_ok());
    let (trainer, summary) = recovered.map_err(|e| eprintln!("  recover failed: {e}")).ok()?;
    let setup_s = secs(t0.elapsed());
    out.check("the server boots at window 1", boot.window == 1);
    out.check("the trainer recovers at window 1", summary.next_window == 1);
    let served = server.reader().pin().masters().to_vec();
    out.check("booted server serves the recovered masters", served == trainer.masters());
    Some((trainer, server, setup_s))
}

/// What the commit hook saw: flip times, and each published epoch's
/// master changes (epoch 1 is the booted table in full).
#[derive(Default)]
struct FlipLog {
    flip_ns: Vec<u64>,
    epochs: Vec<(u64, Vec<(VertexId, DcId)>)>,
    current: Vec<DcId>,
}

impl FlipLog {
    fn publish(&mut self, epoch: u64, masters: &[DcId]) {
        let mut diff: Vec<(VertexId, DcId)> = Vec::new();
        for (v, &m) in masters.iter().enumerate() {
            if self.current.get(v) != Some(&m) {
                diff.push((v as VertexId, m));
            }
        }
        self.current.clear();
        self.current.extend_from_slice(masters);
        self.epochs.push((epoch, diff));
    }
}

/// The benchmark's commit hook: builds a routing table from the sealed
/// placement and flips it in, timing both.
fn install_hook(trainer: &mut DurableAdaptive, board: Arc<PlanBoard>, log: Arc<Mutex<FlipLog>>) {
    trainer.set_commit_hook(Box::new(move |window, core| {
        let (epoch, wall) = trace::span("geoserve.flip", || {
            board.publish(RoutingTable::from_placement(window + 1, core))
        });
        let mut log = log.lock().expect("flip log lock poisoned");
        log.flip_ns.push(wall.as_nanos() as u64);
        log.publish(epoch, core.masters());
    }));
}

/// What the reader thread saw.
struct ReaderStats {
    hist: Hist,
    flip_batch_ns: Vec<f64>,
    batches: u64,
    epochs_seen: u64,
    retries: u64,
    elapsed: f64,
    /// `(epoch, ring offset, response hash)` of every SAMPLE_EVERY-th batch.
    samples: Vec<(u64, usize, u64)>,
}

fn serve(board: &Arc<PlanBoard>, ring: &[VertexId], stop: &AtomicBool) -> ReaderStats {
    let mut reader = board.reader();
    let mut stats = ReaderStats {
        hist: Hist::new(),
        flip_batch_ns: Vec::new(),
        batches: 0,
        epochs_seen: 1,
        retries: 0,
        elapsed: 0.0,
        samples: Vec::new(),
    };
    let mut out = Vec::with_capacity(BATCH);
    let mut last_epoch = 0u64;
    let mut pos = 0usize;
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let batch = &ring[pos..pos + BATCH];
        let t0 = Instant::now();
        let epoch = reader.lookup_many(batch, &mut out);
        let ns = t0.elapsed().as_nanos() as u64;
        stats.hist.record(ns);
        if epoch != last_epoch {
            if last_epoch != 0 {
                stats.epochs_seen += 1;
                stats.flip_batch_ns.push(ns as f64);
            }
            last_epoch = epoch;
        }
        if stats.batches.is_multiple_of(SAMPLE_EVERY) {
            stats.samples.push((epoch, pos, geodur::fnv1a(&out)));
        }
        std::hint::black_box(&out);
        stats.batches += 1;
        pos = (pos + BATCH) % ring.len();
    }
    stats.elapsed = start.elapsed().as_secs_f64();
    stats.retries = reader.flip_retries();
    stats
}

/// Checks every sampled response against the masters the writer
/// published at the epoch the response reports. Returns `(checked, bad)`.
fn verify_samples(
    log: &FlipLog,
    ring: &[VertexId],
    samples: &mut [(u64, usize, u64)],
) -> (u64, u64) {
    samples.sort_by_key(|s| s.0);
    let mut masters: Vec<DcId> = Vec::new();
    let mut epochs = log.epochs.iter().peekable();
    let mut current_epoch = 0u64;
    let (mut checked, mut bad) = (0u64, 0u64);
    let mut expected = Vec::with_capacity(BATCH);
    for &(epoch, pos, response) in samples.iter() {
        while let Some((e, _)) = epochs.peek() {
            if *e > epoch {
                break;
            }
            let (e, diff) = epochs.next().expect("peeked");
            for &(v, m) in diff {
                if masters.len() <= v as usize {
                    masters.resize(v as usize + 1, 0);
                }
                masters[v as usize] = m;
            }
            current_epoch = *e;
        }
        checked += 1;
        expected.clear();
        expected.extend(ring[pos..pos + BATCH].iter().map(|&v| masters[v as usize]));
        let ok = current_epoch == epoch && geodur::fnv1a(&expected) == response;
        bad += u64::from(!ok);
    }
    (checked, bad)
}

/// The highest usual percentile leaving ten samples above it (see
/// [`trace::tail_percentile`]), or the maximum for tiny sample counts.
fn tail_pct(n: u64) -> f64 {
    trace::tail_percentile(n).unwrap_or(100.0)
}

/// What the delta-window phase measured, one entry per committed window.
#[derive(Default)]
struct WindowPhase {
    /// `DurableAdaptive::window`, plus `snapshot_now` on snapshot windows.
    window_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    train_ms: Vec<f64>,
    /// Window wall time minus delta apply, train and flip.
    unreported_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    wal_bytes: u64,
    migrations: usize,
}

impl WindowPhase {
    fn record(&self, out: &mut Outcome) {
        out.set("train_s", self.window_ms.iter().sum::<f64>() * 1e-3);
        let pct = tail_pct(self.window_ms.len() as u64);
        out.set("window_ms_p50", trace::median(&self.window_ms));
        out.set("window_ms_tail", trace::quantile(&self.window_ms, pct / 100.0));
        out.note(format!("window_ms_tail is p{pct} of {} windows", self.window_ms.len()));
        out.set("rlcut.window_delta_apply_ms_p50", trace::median(&self.apply_ms));
        out.set("rlcut.window_train_ms_p50", trace::median(&self.train_ms));
        out.set("rlcut.window_unreported_ms_p50", trace::median(&self.unreported_ms));
        out.set("rlcut.migrations", self.migrations as f64);
        let committed = self.window_ms.len().max(1) as f64;
        out.set("geodur.wal_bytes_per_window", self.wal_bytes as f64 / committed);
        out.set("geodur.snapshot_ms_p50", trace::median(&self.snapshot_ms));
        out.set("geodur.snapshot_bytes", trace::median(&self.snapshot_bytes));
    }
}

/// Feeds every delta window through `writer` as a closed loop, cutting a
/// snapshot every [`SNAPSHOT_EVERY`] windows except in the last
/// [`WAL_TAIL`]. Stops at the first failed window.
fn run_windows(
    out: &mut Outcome,
    writer: &mut DurableAdaptive,
    inputs: &Inputs,
    env: &CloudEnv,
    log: &Mutex<FlipLog>,
) -> WindowPhase {
    let mut phase = WindowPhase::default();
    let last_snapshot_at = inputs.deltas.len() - WAL_TAIL;
    for (i, delta) in inputs.deltas.iter().enumerate() {
        let (old_n, new_n) = (delta.old_num_vertices(), delta.new_num_vertices());
        let profile = TrafficProfile::uniform(new_n, 8.0);
        let wal_before = writer.store().appended_bytes();
        let flips_before = log.lock().expect("flip log lock poisoned").flip_ns.len();
        let (done, wall) = trace::span("rlcut.window", || {
            writer.window(
                env,
                Some(delta),
                &inputs.locations[old_n..new_n],
                &inputs.sizes[old_n..new_n],
                profile,
                10.0,
                T_OPT,
            )
        });
        out.op(done.is_ok());
        let report = match done {
            Ok(r) => r,
            Err(e) => {
                eprintln!("  window {} failed: {e}", i + 1);
                break;
            }
        };
        trace::count("migrations", report.migrations as f64);
        phase.wal_bytes += writer.store().appended_bytes() - wal_before;
        phase.migrations += report.migrations;
        let flip_ns: u64 =
            log.lock().expect("flip log lock poisoned").flip_ns[flips_before..].iter().sum();
        let mut total = wall;
        if (i + 1).is_multiple_of(SNAPSHOT_EVERY) && i < last_snapshot_at {
            let (snap, snap_wall) = trace::span("geodur.snapshot", || writer.snapshot_now());
            out.op(snap.is_ok());
            match snap {
                Ok(bytes) => phase.snapshot_bytes.push(bytes as f64),
                Err(e) => eprintln!("  snapshot after window {} failed: {e}", i + 1),
            }
            phase.snapshot_ms.push(secs(snap_wall) * 1e3);
            total += snap_wall;
        }
        let (apply, train) = (secs(report.delta_apply) * 1e3, secs(report.train) * 1e3);
        phase.window_ms.push(secs(total) * 1e3);
        phase.apply_ms.push(apply);
        phase.train_ms.push(train);
        phase.unreported_ms.push(secs(wall) * 1e3 - apply - train - flip_ns as f64 * 1e-6);
    }
    phase
}

impl ReaderStats {
    fn record(&self, out: &mut Outcome) {
        let pct = tail_pct(self.hist.count());
        out.set("lookups_per_s", (self.batches as usize * BATCH) as f64 / self.elapsed.max(1e-9));
        out.set("lookup_batch_ns_p50", self.hist.quantile(0.5));
        out.set("lookup_batch_ns_tail", self.hist.quantile(pct / 100.0));
        out.note(format!("lookup_batch_ns_tail is p{pct} of {} batches", self.hist.count()));
        out.set("geoserve.flip_batch_ns_p50", trace::median(&self.flip_batch_ns));
        out.set("geoserve.pin_retries", self.retries as f64);
        out.set("geoserve.epochs_seen", self.epochs_seen as f64);
    }
}

/// The live run's final state, which every restart must reproduce.
struct Live {
    masters: Vec<DcId>,
    published: Vec<DcId>,
    movement_cost_bits: u64,
}

/// Crash restarts: boot the server and recover the trainer from `dir`,
/// [`RESTARTS`] times, checking each against `live`. Returns the last
/// recovered trainer.
fn restarts(
    out: &mut Outcome,
    dir: &Path,
    inputs: &Inputs,
    env: &CloudEnv,
    seed: u64,
    live: &Live,
) -> Option<DurableAdaptive> {
    let (mut recover_s, mut boot_s, mut trainer_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for rep in 0..RESTARTS {
        trace::new_run();
        drop(last.take());
        let t0 = Instant::now();
        let (booted, boot) =
            trace::span("geoserve.boot", || PlacementServer::boot_from_store(dir, env));
        let (recovered, rec) = trace::span("geodur.recover", || {
            DurableAdaptive::recover(dir, config(inputs, seed), Some(BUDGET_FRACTION), env, 0)
        });
        recover_s.push(secs(t0.elapsed()));
        boot_s.push(secs(boot));
        trainer_s.push(secs(rec));
        out.op(booted.is_ok());
        out.op(recovered.is_ok());
        let (Ok((server, _)), Ok((trainer, summary))) = (booted, recovered) else {
            eprintln!("  restart {rep} failed");
            continue;
        };
        out.set("geodur.replayed_windows", summary.replayed_windows as f64);
        let served = server.reader().pin().masters().to_vec();
        out.check(
            "the rebooted server serves the last published masters",
            served == live.published,
        );
        out.check("recovered masters equal the live run's", trainer.masters() == live.masters);
        let bits = trainer.inner().carried_parts().map(|(core, _)| core.movement_cost().to_bits());
        out.check(
            "recovered movement-cost bits equal the live run's",
            bits == Some(live.movement_cost_bits),
        );
        last = Some(trainer);
    }
    out.set("recover_s", trace::median(&recover_s));
    out.set("geoserve.boot_s", trace::median(&boot_s));
    out.set("geodur.recover_trainer_s", trace::median(&trainer_s));
    last
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let windows = ((args.seconds * WINDOWS_PER_SECOND).round() as usize).max(2 * SNAPSHOT_EVERY);
    let (inputs, gen_s) = timed(|| make_inputs(args.seed, windows));
    out.set("bench.input_gen_s", gen_s);
    let env = ec2_eight_regions();
    eprintln!(
        "  LJ growth stream: {} vertices, {} initial edges, {} windows of {EVENTS_PER_WINDOW} events",
        inputs.initial.num_vertices(),
        inputs.initial.num_edges(),
        inputs.deltas.len()
    );
    let root = args.work_dir.join(format!("durable-{}", std::process::id()));
    if run_in(&mut out, args, &inputs, &env, &root).is_none() {
        eprintln!("  the run ended early; see the failures above");
    }
    let _ = std::fs::remove_dir_all(&root);
    out
}

/// Everything after input generation, with stores under `root`. `None`
/// when a failure left nothing further to measure.
fn run_in(
    out: &mut Outcome,
    args: &Args,
    inputs: &Inputs,
    env: &CloudEnv,
    root: &Path,
) -> Option<()> {
    let dir_of = |rep: u32| -> PathBuf { root.join(format!("store-{rep}")) };
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        trace::new_run();
        if kept.take().is_some() {
            let _ = std::fs::remove_dir_all(dir_of(rep - 1));
        }
        if let Some((trainer, server, setup_s)) = setup(out, inputs, env, &dir_of(rep), args.seed) {
            setups.push(setup_s);
            kept = Some((trainer, server));
        }
    }
    let (mut writer, server) = kept?;
    out.set("setup_s", trace::median(&setups));

    // Delta windows, with one reader serving throughout.
    trace::new_run();
    let board = server.board();
    let log = Arc::new(Mutex::new(FlipLog::default()));
    log.lock().expect("fresh lock").publish(board.published_epoch(), writer.masters());
    install_hook(&mut writer, Arc::clone(&board), Arc::clone(&log));
    let stop = AtomicBool::new(false);
    let (phase, mut reader) = std::thread::scope(|s| {
        let reader = s.spawn(|| serve(&board, &inputs.ring, &stop));
        let phase = run_windows(out, &mut writer, inputs, env, &log);
        stop.store(true, Ordering::Relaxed);
        (phase, reader.join().expect("reader thread panicked"))
    });
    out.check("every delta window committed", phase.window_ms.len() == inputs.deltas.len());
    phase.record(out);
    reader.record(out);

    // The live state, checked before the crash.
    let Some((core, _)) = writer.inner().carried_parts() else {
        out.check("the writer carries a placement", false);
        return None;
    };
    let plan = core.objective(env);
    out.set("plan_transfer_s", plan.transfer_time);
    out.set("plan_cost_usd", plan.total_cost());
    let geo = writer.geo();
    let budget =
        geosim::cost::default_budget(env, &geo.locations, &geo.data_sizes, BUDGET_FRACTION);
    out.check("live plan cost is within the budget", plan.total_cost() <= budget);
    let carried = writer.inner().validate_carried(geo, env);
    if let Err(e) = &carried {
        eprintln!("  validate_carried: {e}");
    }
    out.check("validate_carried passes on the live writer", matches!(carried, Ok(true)));
    let (published, table_bytes) = {
        let mut r = board.reader();
        let table = r.pin();
        (table.masters().to_vec(), table.heap_bytes())
    };
    out.set("geoserve.table_bytes", table_bytes as f64);
    let live = Live {
        masters: writer.masters().to_vec(),
        published,
        movement_cost_bits: core.movement_cost().to_bits(),
    };
    out.check("the last published table is the live plan", live.published == live.masters);

    // Crash: the writer and the server go away.
    drop(writer);
    drop(server);
    drop(board);
    let flip_log = Arc::into_inner(log)
        .expect("the hook died with the writer")
        .into_inner()
        .expect("flip log lock poisoned");
    let flip_us: Vec<f64> = flip_log.flip_ns.iter().map(|&ns| ns as f64 * 1e-3).collect();
    out.set("geoserve.flip_us_p50", trace::median(&flip_us));
    out.tally(reader.batches, 0);
    let (checked, bad) = verify_samples(&flip_log, &inputs.ring, &mut reader.samples);
    out.tally(checked, bad);
    out.note(format!(
        "{checked} sampled lookup batches checked against their epochs, {bad} differ"
    ));
    drop(flip_log);

    let trainer = restarts(out, &dir_of(SETUP_REPS - 1), inputs, env, args.seed, &live)?;

    // Analytics on the served plan.
    let carried = trainer.inner().validate_carried(trainer.geo(), env);
    out.check("validate_carried passes on the recovered trainer", matches!(carried, Ok(true)));
    let (core, _) = trainer.inner().carried_parts()?;
    out.set("geopart.state_bytes", core.heap_bytes() as f64);
    run_engine(out, trainer.geo(), env, core);
    Some(())
}
