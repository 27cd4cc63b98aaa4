//! The three workloads, and the timing helpers they share.

pub mod durable_serve;
pub mod sharded_tw;
pub mod static_lj;

use std::time::{Duration, Instant};

use geoengine::runner::AlgoOutput;
use geoengine::{execute_plan, Algorithm, ExecutionReport};
use geograph::GeoGraph;
use geopart::PlacementState;
use geosim::CloudEnv;
use rlcut::{RlCutResult, ShardError, ShardedTrainer, StepStats, TrainerSession};

use crate::outcome::Outcome;
use crate::trace;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: u32 = 3;
/// Engine executions per run: at least this many, and more until
/// [`ENGINE_MIN_S`] of engine time is reached; `engine_s` is their median.
pub const ENGINE_REPS: u32 = 3;
pub const ENGINE_MIN_S: f64 = 2.0;
/// The paper's training horizon (steps per static run).
pub const STEPS: usize = 10;

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Times `f` (input generation and other work outside any layer).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

/// The two training sessions, driven step by step from outside.
pub trait Session<'g> {
    fn is_done(&self) -> bool;
    fn step(&mut self, env: &CloudEnv) -> Result<Option<StepStats>, ShardError>;
    /// `(shuffle bytes, ghost vertices)`; zero for the single-process trainer.
    fn shard_counts(&self) -> (u64, usize) {
        (0, 0)
    }
    fn finish(self, env: &CloudEnv) -> RlCutResult<'g>;
}

impl<'g> Session<'g> for TrainerSession<'g> {
    fn is_done(&self) -> bool {
        TrainerSession::is_done(self)
    }
    fn step(&mut self, env: &CloudEnv) -> Result<Option<StepStats>, ShardError> {
        Ok(TrainerSession::step(self, env))
    }
    fn finish(self, env: &CloudEnv) -> RlCutResult<'g> {
        TrainerSession::finish(self, env)
    }
}

impl<'g> Session<'g> for ShardedTrainer<'g> {
    fn is_done(&self) -> bool {
        ShardedTrainer::is_done(self)
    }
    fn step(&mut self, env: &CloudEnv) -> Result<Option<StepStats>, ShardError> {
        ShardedTrainer::step(self, env)
    }
    fn shard_counts(&self) -> (u64, usize) {
        (self.shuffle_bytes(), self.total_ghosts())
    }
    fn finish(self, env: &CloudEnv) -> RlCutResult<'g> {
        ShardedTrainer::finish(self, env)
    }
}

/// What one training session cost, timed from outside.
#[derive(Default)]
pub struct SessionTimes {
    pub new_s: f64,
    /// Wall time and the trainer's own stats of each step.
    pub steps: Vec<(f64, StepStats)>,
    pub finish_s: f64,
    /// Session construction to `finish`.
    pub train_s: f64,
    pub shuffle_bytes: u64,
    pub ghost_vertices: usize,
}

/// Constructs a session with `make`, steps it to the horizon and finishes
/// it, spanning each call. A failed construction or step is tallied in
/// `out` and ends the session with `None`.
pub fn train_session<'g, S: Session<'g>>(
    out: &mut Outcome,
    env: &CloudEnv,
    make: impl FnOnce() -> Result<S, ShardError>,
) -> Option<(RlCutResult<'g>, SessionTimes)> {
    let t0 = Instant::now();
    let (made, new) = trace::span("rlcut.session_new", make);
    out.op(made.is_ok());
    let mut session = match made {
        Ok(s) => s,
        Err(e) => {
            eprintln!("  session construction failed: {e}");
            return None;
        }
    };
    let mut times = SessionTimes { new_s: secs(new), ..SessionTimes::default() };
    while !session.is_done() {
        let (stepped, wall) = trace::span("rlcut.step", || session.step(env));
        out.op(stepped.is_ok());
        match stepped {
            Ok(Some(stats)) => {
                trace::count("agents", stats.num_agents as f64);
                trace::count("migrations", stats.migrations as f64);
                times.steps.push((secs(wall), stats));
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("  training step failed: {e}");
                return None;
            }
        }
    }
    (times.shuffle_bytes, times.ghost_vertices) = session.shard_counts();
    let (result, finish) = trace::span("rlcut.finish", || session.finish(env));
    times.finish_s = secs(finish);
    times.train_s = secs(t0.elapsed());
    trace::count("shuffle_bytes", times.shuffle_bytes as f64);
    Some((result, times))
}

/// Checks a trained plan: the incremental state matches a rebuild and the
/// plan's Eq 4+5 cost is within the budget. Records the plan's Eq 1
/// transfer time and cost.
pub fn check_plan(out: &mut Outcome, result: &RlCutResult<'_>, env: &CloudEnv, budget: f64) {
    let valid = result.state.validate_plan(env);
    if let Err(e) = &valid {
        eprintln!("  validate_plan: {e}");
    }
    out.check("validate_plan passes on the trained plan", valid.is_ok());
    let objective = result.final_objective(env);
    out.check("trained plan cost is within the budget", objective.total_cost() <= budget);
    out.set("plan_transfer_s", objective.transfer_time);
    out.set("plan_cost_usd", objective.total_cost());
}

/// Records the per-layer trainer metrics of the median session.
pub fn record_sessions(out: &mut Outcome, sessions: &[SessionTimes]) {
    let col = |f: &dyn Fn(&SessionTimes) -> f64| {
        let v: Vec<f64> = sessions.iter().map(f).collect();
        trace::median(&v)
    };
    let train_s = col(&|s| s.train_s);
    let new_s = col(&|s| s.new_s);
    let finish_s = col(&|s| s.finish_s);
    let step_wall = col(&|s| s.steps.iter().map(|(w, _)| w).sum());
    let score = col(&|s| s.steps.iter().map(|(_, st)| secs(st.score_duration)).sum());
    let migrate = col(&|s| s.steps.iter().map(|(_, st)| secs(st.migrate_duration)).sum());
    let agents = col(&|s| s.steps.iter().map(|(_, st)| st.num_agents as f64).sum());
    let migrations = col(&|s| s.steps.iter().map(|(_, st)| st.migrations as f64).sum());
    let steps = col(&|s| s.steps.len() as f64);
    let shuffle = col(&|s| s.shuffle_bytes as f64);
    let ghosts = col(&|s| s.ghost_vertices as f64);
    let walls: Vec<f64> = sessions.iter().flat_map(|s| s.steps.iter().map(|(w, _)| *w)).collect();
    out.set("train_s", train_s);
    out.set("rlcut.session_new_s", new_s);
    out.set("rlcut.finish_s", finish_s);
    out.set("rlcut.step_s_max", walls.iter().copied().fold(0.0, f64::max));
    out.set("rlcut.step_s_p50", trace::median(&walls));
    out.set("rlcut.score_s", score);
    out.set("rlcut.migrate_s", migrate);
    out.set("rlcut.step_other_s", step_wall - score - migrate);
    out.set("rlcut.agents", agents);
    out.set("rlcut.migrations", migrations);
    out.set("rlcut.accept_ratio", migrations / agents.max(1.0));
    out.set("rlcut.agents_per_s", agents / step_wall.max(1e-12));
    out.set("rlcut.shuffle_bytes", shuffle);
    out.set("rlcut.shuffle_bytes_per_step", shuffle / steps.max(1.0));
    out.set("rlcut.ghost_vertices", ghosts);
}

/// Runs PageRank on `plan` repeatedly (see [`ENGINE_REPS`]); records `engine_s` (the
/// median) and the engine's counts, and checks that every execution
/// produced the same finite ranks and traffic.
pub fn run_engine(out: &mut Outcome, geo: &GeoGraph, env: &CloudEnv, plan: &PlacementState) {
    let algo = Algorithm::pagerank();
    let mut walls = Vec::new();
    let mut first: Option<ExecutionReport> = None;
    for rep in 0.. {
        if rep >= ENGINE_REPS && walls.iter().sum::<f64>() >= ENGINE_MIN_S {
            break;
        }
        trace::new_run();
        let (report, wall) =
            trace::span("geoengine.execute_plan", || execute_plan(geo, env, plan, None, &algo));
        out.op(true);
        trace::count("wan_bytes", report.wan_bytes);
        walls.push(secs(wall));
        match &first {
            None => {
                let ranks_ok = match &report.output {
                    AlgoOutput::Ranks(r) => {
                        r.len() == geo.num_vertices()
                            && r.iter().all(|x| x.is_finite() && *x >= 0.0)
                    }
                    _ => false,
                };
                out.check("PageRank returns a finite rank per vertex", ranks_ok);
                out.check("PageRank runs its 10 iterations", report.iterations == 10);
                first = Some(report);
            }
            Some(f) => out.check(
                "engine executions agree",
                f.transfer_time.to_bits() == report.transfer_time.to_bits()
                    && f.wan_bytes.to_bits() == report.wan_bytes.to_bits(),
            ),
        }
    }
    let engine_s = trace::median(&walls);
    let report = first.expect("ENGINE_REPS >= 1");
    out.set("engine_s", engine_s);
    out.set("geoengine.iterations", report.iterations as f64);
    out.set("geoengine.wan_bytes", report.wan_bytes);
    out.set("geoengine.ms_per_iteration", engine_s * 1e3 / report.iterations.max(1) as f64);
}

/// How many sessions a run trains: as many as `seconds` holds at the
/// workload's nominal session time on the reference host, at least one.
/// A function of the arguments only, so the work per run (and with it the
/// memory high-water mark) does not depend on machine speed.
pub fn sessions_for(seconds: f64, nominal_session_s: f64) -> usize {
    ((seconds / nominal_session_s).floor() as usize).max(1)
}

/// Trains `count` sessions with `train`. Each session's times go to
/// `sessions`; every session must train the first one's masters. Returns
/// the last result, dropping earlier ones so memory does not grow with the
/// session count.
pub fn repeat_training<'g>(
    out: &mut Outcome,
    count: usize,
    sessions: &mut Vec<SessionTimes>,
    mut train: impl FnMut(&mut Outcome) -> Option<(RlCutResult<'g>, SessionTimes)>,
) -> Option<RlCutResult<'g>> {
    let mut first_masters: Option<Vec<geograph::DcId>> = None;
    let mut last = None;
    for _ in 0..count {
        drop(last.take());
        trace::new_run();
        let (result, times) = train(out)?;
        let masters = result.state.core().masters();
        match &first_masters {
            None => first_masters = Some(masters.to_vec()),
            Some(first) => {
                out.check("repeated training reproduces the plan", first.as_slice() == masters)
            }
        }
        sessions.push(times);
        last = Some(result);
    }
    last
}
