//! The RLCut training loop (Fig 5) with batched global migration (Fig 7,
//! §V-A) and degree-balanced parallel scoring (§V-B).
//!
//! ## One step, two ways to propose
//!
//! [`Trainer`] owns the whole Fig 5 step: the Eq 14 sampling schedule, the
//! optional scan window, the Eq 10 weights, the frozen step objective, the
//! best-plan tracker, convergence, [`StepStats`], the applied-move journal
//! and the [`TrainingObserver`] calls. The only part that differs between
//! the single-process and the sharded trainer — scoring plus the LA update,
//! which turn the sampled agents into migration proposals — sits behind
//! the [`Proposer`] trait, together with a hook that runs after migration:
//!
//! * [`LocalProposer`] ([`TrainerSession`]) scores on the worker pool
//!   against the global state and runs the LA updates serially; its hook
//!   does nothing.
//! * `ShardProposer` ([`crate::ShardedTrainer`]) fans the agents out to
//!   shard workers over the shuffle layer and reassembles their decisions;
//!   its hook ships the rows the migration dirtied back to the shards.
//!
//! Migration itself is one function for both: [`migration_phase`] returns
//! the applied moves, which feed the journal, the step's migration count
//! and the sharded row sync.
//!
//! ## Parallel architecture
//!
//! The environment ([`HybridState`]) sits behind a `parking_lot::RwLock`.
//! Both parallel phases run on the session's persistent
//! [`WorkerPool`](crate::pool::WorkerPool): `threads` workers spawned once
//! per session, each owning a [`geopart::MoveScratch`] arena that stays
//! resident (and therefore warm) across steps.
//!
//! * **Scoring** — sampled agents are spread over the pool's workers by
//!   the straggler-mitigating LPT assignment; each worker scores all `M`
//!   candidate moves of an agent in **one** batched kernel sweep
//!   ([`HybridState::evaluate_all_moves`]) against the frozen step-start
//!   state (read locks only). LA probability/UCB updates then run serially
//!   (they are `O(M)` per agent — noise next to the `O(deg)` scoring).
//! * **Migration** — move proposals are shuffled (the paper batches
//!   randomly) and processed batch-by-batch: the frozen batch objective is
//!   computed **once** by the leader and shared read-only, workers evaluate
//!   the batch's members in parallel against the frozen batch-start state,
//!   a barrier separates them from the leader applying the accepted moves
//!   under the write lock, and a second barrier keeps later readers from
//!   observing a half-applied batch. `batch_size = 1` degenerates to the
//!   strictly sequential global optimization of Fig 7.
//!
//! Everything is deterministic for a fixed seed, independent of thread
//! count and shard count: accept decisions depend only on frozen snapshots
//! and the apply order is the shuffled proposal order.

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use geograph::{DcId, GeoGraph, VertexId};
use geopart::{EvacuationReport, HybridState, MoveScratch, Objective, PlanError, TrafficProfile};
use geosim::faults::FaultyEnv;
use geosim::CloudEnv;
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::agent::AgentPool;
use crate::checkpoint::TrainerCheckpoint;
use crate::config::{RlCutConfig, SampleStrategy};
use crate::observer::{NoopObserver, TrainingObserver};
use crate::pool::WorkerPool;
use crate::sampling::{degree_ascending_order, sample_prefix, scan_window, SampleScheduler};
use crate::score::{best_destination, score, Weights};
use crate::stats::{RlCutResult, StepStats};
use crate::straggler;

/// Minimum sampled-agent count before the score phase fans out to the
/// worker pool; smaller samples run sequentially on the caller thread.
/// A pool dispatch costs one condvar round-trip plus the LPT group build,
/// which amortizes only once the sample carries enough `O(deg)` scoring
/// work; tiny adaptive early-step samples (1 % of agents) finish faster
/// inline (measured with `bench_trainer` on the 8-DC Twitter analog).
const PARALLEL_THRESHOLD: usize = 64;

/// Partitions `geo` starting from its natural locations (the paper's
/// initial state).
pub fn partition<'g>(
    geo: &'g GeoGraph,
    env: &CloudEnv,
    profile: TrafficProfile,
    num_iterations: f64,
    config: &RlCutConfig,
) -> RlCutResult<'g> {
    let theta = config.theta.unwrap_or_else(|| geograph::degree::suggest_theta(&geo.graph, 0.05));
    let state =
        HybridState::from_masters(geo, env, geo.locations.clone(), theta, profile, num_iterations);
    train(geo, env, state, config)
}

/// Runs the training loop on an existing state: `new` → `run` → `finish`.
/// Drive a [`TrainerSession`] directly for an observer, a journal or
/// step-by-step control.
pub fn train<'g>(
    geo: &'g GeoGraph,
    env: &CloudEnv,
    state: HybridState<'g>,
    config: &RlCutConfig,
) -> RlCutResult<'g> {
    let mut session = TrainerSession::new(geo, env, state, config.clone());
    let Ok(()) = session.run(env, &mut NoopObserver);
    session.finish(env)
}

/// The expensive, graph-independent half of a session: the persistent
/// worker pool and the sequential scratch arena. A dynamic driver moves
/// these out of a finished session ([`Trainer::finish_with_resources`])
/// and threads them into the next window's session, so pool workers — and
/// their warm per-worker arenas — survive across windows instead of being
/// respawned per window.
#[derive(Debug)]
pub struct SessionResources {
    /// Carried worker pool (`None` when the donor ran single-threaded).
    pub(crate) pool: Option<WorkerPool>,
    /// Carried sequential scratch arena.
    pub(crate) scratch: MoveScratch,
    /// Applied-move journal of the donor session (present only when the
    /// donor had [`Trainer::enable_move_journal`] on): one entry per step
    /// with accepted migrations, in exact apply order, plus the reconcile
    /// sweep under [`RECONCILE_STEP`]. Rides *out* of a session; incoming
    /// resources never seed a new session's journal.
    pub(crate) journal: Option<MoveJournal>,
}

/// Journal step index of the end-of-session reconcile sweep
/// (live plan → best plan) in [`SessionResources`]' move journal.
pub const RECONCILE_STEP: u32 = u32::MAX;

/// A master migration: `(vertex, destination DC)`.
pub type Move = (VertexId, DcId);

/// An applied-move journal: per step, the accepted migrations in exact
/// apply order.
pub type MoveJournal = Vec<(u32, Vec<Move>)>;

impl Default for SessionResources {
    fn default() -> Self {
        SessionResources { pool: None, scratch: MoveScratch::new(), journal: None }
    }
}

impl SessionResources {
    /// OS thread ids of the carried pool's workers (`None` without a
    /// pool). The cross-window persistence probe: ids stable across
    /// windows prove the pool was reused, not respawned.
    pub fn pool_thread_ids(&self) -> Option<Vec<std::thread::ThreadId>> {
        self.pool.as_ref().map(|p| p.thread_ids())
    }
}

/// What a [`Proposer`] may touch of its trainer during a step.
pub struct StepCtx<'a, 'g> {
    pub(crate) geo: &'g GeoGraph,
    pub(crate) env: &'a CloudEnv,
    pub(crate) config: &'a RlCutConfig,
    /// The authoritative global state.
    pub(crate) state: &'a RwLock<HybridState<'g>>,
    pub(crate) pool: Option<&'a WorkerPool>,
    /// Session-resident scratch for every sequential path.
    pub(crate) scratch: &'a mut MoveScratch,
}

/// The one variation point of the training step: Fig 5 phases 1–4 (score
/// each sampled agent, update its automaton, select an action), plus a
/// hook after phase 5.
pub trait Proposer {
    /// Why proposing can fail ([`Infallible`] in-process).
    type Error;

    /// Scores `sampled` against the frozen `step_obj`, runs their LA
    /// updates and returns the `(vertex, selected DC)` proposals of the
    /// agents whose selection differs from their master, in sampled order,
    /// together with the time spent scoring.
    fn propose(
        &mut self,
        ctx: &mut StepCtx<'_, '_>,
        sampled: &[VertexId],
        step_obj: &Objective,
        weights: Weights,
    ) -> Result<(Vec<Move>, Duration), Self::Error>;

    /// Runs after the step's migrations were applied to the global state,
    /// in apply order.
    fn after_migration(
        &mut self,
        _ctx: &mut StepCtx<'_, '_>,
        _applied: &[Move],
    ) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// A training run: the Fig 5 loop broken into externally driven steps.
/// `P` decides how sampled agents become proposals; everything else is
/// shared by [`TrainerSession`] and [`crate::ShardedTrainer`].
pub struct Trainer<'g, P> {
    geo: &'g GeoGraph,
    config: RlCutConfig,
    /// Sampling priority order (degree-ascending or seeded shuffle),
    /// isolated vertices excluded.
    order: Vec<VertexId>,
    scheduler: SampleScheduler,
    /// Migration-batch shuffle RNG.
    rng: SmallRng,
    state: RwLock<HybridState<'g>>,
    steps: Vec<StepStats>,
    /// Best plan seen: a feasible (within-budget) plan beats any infeasible
    /// one, then lower transfer time wins. Batched migration can regress
    /// individual steps (jointly-applied moves interact, §V-A), so the
    /// trainer returns the best plan rather than the last.
    best: (Vec<DcId>, Objective),
    step_index: usize,
    converged: bool,
    /// Whether the schedule/sampler declared the run finished (distinct
    /// from convergence; a time budget can run out mid-flight).
    exhausted: bool,
    started: Instant,
    /// Persistent workers for the parallel phases, spawned once per
    /// session and reused every step (`None` single-threaded). Joined on
    /// drop, so `resume`/`train_under_faults` restart cycles never
    /// accumulate workers.
    pool: Option<WorkerPool>,
    /// Session-resident scratch for every sequential path (small-sample
    /// scoring, `batch_size = 1` migration, evacuation, reconcile).
    scratch: MoveScratch,
    /// Applied-move journal: `Some` while a durable driver needs every
    /// accepted migration (in exact apply order) for its WAL.
    journal: Option<MoveJournal>,
    proposer: P,
}

/// The single-process trainer.
///
/// Besides stepping, it can capture the logical trainer state
/// ([`Self::checkpoint`]) and resume from it ([`Self::resume`])
/// bit-exactly, and react to WAN faults ([`Self::on_environment_change`]).
pub type TrainerSession<'g> = Trainer<'g, LocalProposer>;

/// [`TrainerSession`]'s proposer: the global automata, scored on the
/// session's worker pool.
pub struct LocalProposer {
    agents: AgentPool,
}

impl<'g, P: Proposer> Trainer<'g, P> {
    /// Builds a session over `state` around `proposer`, adopting the
    /// carried pool and scratch of `resources`. The pool is adopted only
    /// when it matches this config's thread count; otherwise it is dropped
    /// here (its workers join) and the session builds its own.
    pub(crate) fn assemble(
        geo: &'g GeoGraph,
        env: &CloudEnv,
        state: HybridState<'g>,
        config: RlCutConfig,
        resources: SessionResources,
        proposer: P,
    ) -> Self {
        let threads = config.threads();
        let SessionResources { pool: carried, scratch, journal: _ } = resources;
        let pool = match carried {
            Some(pool) if threads > 1 && pool.threads() == threads => Some(pool),
            _ => (threads > 1).then(|| WorkerPool::new(threads)),
        };
        Trainer {
            geo,
            // Isolated vertices generate no traffic wherever their master
            // sits — training them wastes the sampled-agent budget, so they
            // are excluded (they keep their initial master).
            order: build_order(geo, &config),
            scheduler: build_scheduler(&config),
            rng: SmallRng::seed_from_u64(config.seed ^ 0x0ddb_1a5e_5bad_5eed),
            best: (state.core().masters().to_vec(), state.objective(env)),
            state: RwLock::new(state),
            config,
            steps: Vec::new(),
            step_index: 0,
            converged: false,
            exhausted: false,
            started: Instant::now(),
            pool,
            scratch,
            journal: None,
            proposer,
        }
    }

    /// Turns on the applied-move journal: from now on every accepted
    /// migration is recorded `(step, moves)` in exact apply order, and
    /// [`Self::finish_with_resources`] hands the journal back through
    /// [`SessionResources`]. The durable driver feeds it to the WAL;
    /// replaying the journal through `apply_move_with` reproduces the
    /// placement accumulators bit-exactly (floating-point accumulation is
    /// order-sensitive, so masters diffs alone would not).
    pub fn enable_move_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Number of trainable (non-isolated) agents.
    pub fn num_trainable(&self) -> usize {
        self.order.len()
    }

    /// Steps executed so far (the weights schedule's clock).
    pub fn step_index(&self) -> usize {
        self.step_index
    }

    /// Whether the run has stopped (converged, horizon, or time budget).
    pub fn is_done(&self) -> bool {
        self.converged || self.exhausted || self.step_index >= self.config.max_steps
    }

    /// Whether training stopped on convergence.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Telemetry of the steps executed by *this* session object (a resumed
    /// session starts empty — the pre-crash telemetry died with the
    /// process).
    pub fn steps(&self) -> &[StepStats] {
        &self.steps
    }

    /// Current master placement.
    pub fn masters(&self) -> Vec<DcId> {
        self.state.read().core().masters().to_vec()
    }

    /// Current objective under `env`.
    pub fn objective(&self, env: &CloudEnv) -> Objective {
        self.state.read().objective(env)
    }

    /// OS thread ids of the pool workers (`None` without a pool).
    pub fn pool_thread_ids(&self) -> Option<Vec<std::thread::ThreadId>> {
        self.pool.as_ref().map(|p| p.thread_ids())
    }

    /// Capacity snapshot of every pool worker's resident scratch arena
    /// (`None` when the session runs without a pool). Steady-state
    /// contract: after the first full-sample step the capacities stop
    /// changing — the hot loops allocate nothing.
    pub fn pool_scratch_stats(&self) -> Option<Vec<geopart::ScratchStats>> {
        self.pool.as_ref().map(|p| p.scratch_stats())
    }

    /// Reorders the sampling priority so `seeds` and their in/out
    /// neighbors come first (stable within each half, so degree order is
    /// preserved inside the hot prefix and inside the tail). After a
    /// dynamic window, the delta's touched vertices are where placement
    /// quality degraded; fronting them makes even a tiny Eq 14 sample
    /// revisit the perturbed neighborhoods first.
    pub fn focus_on(&mut self, seeds: &[VertexId]) {
        if seeds.is_empty() {
            return;
        }
        let n = self.geo.num_vertices();
        let mut hot = vec![false; n];
        for &s in seeds {
            let Some(flag) = hot.get_mut(s as usize) else { continue };
            *flag = true;
            for &u in self.geo.graph.out_neighbors(s) {
                hot[u as usize] = true;
            }
            for &u in self.geo.graph.in_neighbors(s) {
                hot[u as usize] = true;
            }
        }
        let (mut front, back): (Vec<VertexId>, Vec<VertexId>) =
            self.order.iter().copied().partition(|&v| hot[v as usize]);
        front.extend(back);
        self.order = front;
    }

    /// Raises the Eq 14 sample-rate floor (see
    /// [`SampleScheduler::set_min_rate`]) — the dynamic-window
    /// generalization of the fault path's ×8 initial-rate boost: every
    /// step of this window samples at least `floor` of the agents, so a
    /// converged schedule cannot starve the delta's touched region.
    pub fn boost_sampling(&mut self, floor: f64) {
        self.scheduler.set_min_rate(floor.clamp(0.0, 1.0));
    }

    pub(crate) fn proposer(&self) -> &P {
        &self.proposer
    }

    /// Runs `f` on this trainer's step context and proposer.
    pub(crate) fn with_ctx<R>(
        &mut self,
        env: &CloudEnv,
        f: impl FnOnce(&mut StepCtx<'_, 'g>, &mut P) -> R,
    ) -> R {
        let mut ctx = StepCtx {
            geo: self.geo,
            env,
            config: &self.config,
            state: &self.state,
            pool: self.pool.as_ref(),
            scratch: &mut self.scratch,
        };
        f(&mut ctx, &mut self.proposer)
    }

    /// Executes one training step (Fig 5 phases 1–5) under `env` and
    /// returns its telemetry, or `None` if the run is over (converged,
    /// horizon reached, sampling budget exhausted).
    pub(crate) fn step_observed(
        &mut self,
        env: &CloudEnv,
        observer: &mut dyn TrainingObserver,
    ) -> Result<Option<StepStats>, P::Error> {
        if self.is_done() {
            return Ok(None);
        }
        let step = self.step_index;
        let Some(rate) = self.scheduler.next_rate() else {
            self.exhausted = true;
            return Ok(None);
        };
        let prefix = sample_prefix(&self.order, rate);
        if prefix.is_empty() {
            self.exhausted = true;
            return Ok(None);
        }
        // Optional working-set cap (CUTTANA-style): scan only a rotating
        // `max_scan`-sized window of the sampled prefix this step. With the
        // cap disabled (or larger than the sample) this arm is never taken
        // and the step is bit-identical to the uncapped trainer.
        let capped: Option<Vec<VertexId>> = match self.config.max_scan {
            Some(cap) if cap < prefix.len() => Some(scan_window(prefix, cap, step)),
            _ => None,
        };
        let full_scan = capped.is_none();
        let sampled: &[VertexId] = capped.as_deref().unwrap_or(prefix);
        let step_start = Instant::now();
        let step_obj = self.state.read().objective(env);
        if step_obj.transfer_time == 0.0 && step_obj.total_cost() <= self.config.budget {
            self.converged = true;
            return Ok(None);
        }
        let over_budget = step_obj.total_cost() > self.config.budget;
        let weights = Weights::at(step, self.config.max_steps, over_budget);
        let mut ctx = StepCtx {
            geo: self.geo,
            env,
            config: &self.config,
            state: &self.state,
            pool: self.pool.as_ref(),
            scratch: &mut self.scratch,
        };

        // Phases 1–4 — score, reinforce, update, select.
        let (mut proposals, score_duration) =
            self.proposer.propose(&mut ctx, sampled, &step_obj, weights)?;

        // Phase 5 — batched vertex migration with rollback (the paper
        // batches agents randomly, §V-A).
        proposals.shuffle(&mut self.rng);
        let migrate_start = Instant::now();
        let applied = migration_phase(&mut ctx, &proposals, weights);
        self.proposer.after_migration(&mut ctx, &applied)?;
        let migrate_duration = migrate_start.elapsed();
        let migrations = applied.len();
        if let Some(journal) = self.journal.as_mut().filter(|_| !applied.is_empty()) {
            journal.push((step as u32, applied));
        }

        let duration = step_start.elapsed();
        self.scheduler.record(rate, duration.as_secs_f64());
        let obj = self.state.read().objective(env);
        if beats(&obj, &self.best.1, self.config.budget) {
            self.best = (self.state.read().core().masters().to_vec(), obj);
        }
        let stats = StepStats {
            duration,
            score_duration,
            migrate_duration,
            sample_rate: rate,
            num_agents: sampled.len(),
            migrations,
            transfer_time: obj.transfer_time,
            total_cost: obj.total_cost(),
        };
        self.steps.push(stats);
        observer.on_step(step, &stats);
        self.step_index += 1;
        // Convergence is only meaningful when (nearly) all agents took
        // part — a tiny early sample moving nothing says nothing about the
        // full solution space, and a scan-capped step saw only a window of
        // it.
        if full_scan
            && rate >= 0.999
            && (migrations as f64) < self.config.convergence_fraction * sampled.len() as f64
        {
            self.converged = true;
        }
        Ok(Some(stats))
    }

    /// Runs the loop to completion under a fixed environment.
    pub fn run(
        &mut self,
        env: &CloudEnv,
        observer: &mut dyn TrainingObserver,
    ) -> Result<(), P::Error> {
        observer.on_start(self.order.len(), self.config.max_steps);
        while self.step_observed(env, observer)?.is_some() {}
        observer.on_finish(self.converged);
        Ok(())
    }

    /// Finalizes the run: the returned state is the best plan seen.
    pub fn finish(self, env: &CloudEnv) -> RlCutResult<'g> {
        self.finish_with_resources(env).0
    }

    /// [`Self::finish`] that also hands the pool, scratch and journal back
    /// for the next window's session.
    pub fn finish_with_resources(self, env: &CloudEnv) -> (RlCutResult<'g>, SessionResources) {
        let (result, resources, _) = self.finish_into(env);
        (result, resources)
    }

    /// Reconciles the live state to the best plan by **applying the
    /// differing moves** — work proportional to the drift, not to the graph
    /// (`apply_move`'s Eq 4 accounting is path-independent:
    /// `+cost(loc, to) − cost(loc, from)`, so the reconciled state prices
    /// movement as a rebuild would) — and takes the session apart.
    pub(crate) fn finish_into(mut self, env: &CloudEnv) -> (RlCutResult<'g>, SessionResources, P) {
        let total_duration = self.started.elapsed();
        let mut state = self.state.into_inner();
        let best = self.best.0;
        if state.core().masters() != best.as_slice() {
            let diffs: Vec<Move> = state
                .core()
                .masters()
                .iter()
                .zip(&best)
                .enumerate()
                .filter(|(_, (live, best))| live != best)
                .map(|(v, (_, &best))| (v as VertexId, best))
                .collect();
            for &(v, to) in &diffs {
                state.apply_move_with(env, v, to, &mut self.scratch);
            }
            debug_assert_eq!(state.core().masters(), best.as_slice());
            if let Some(journal) = self.journal.as_mut() {
                journal.push((RECONCILE_STEP, diffs));
            }
        }
        let resources =
            SessionResources { pool: self.pool, scratch: self.scratch, journal: self.journal };
        let result =
            RlCutResult { state, steps: self.steps, total_duration, converged: self.converged };
        (result, resources, self.proposer)
    }
}

impl<'g> TrainerSession<'g> {
    /// Sets up a fresh session over an existing state.
    pub fn new(
        geo: &'g GeoGraph,
        env: &CloudEnv,
        state: HybridState<'g>,
        config: RlCutConfig,
    ) -> Self {
        Self::with_resources(geo, env, state, config, SessionResources::default())
    }

    /// [`Self::new`] reusing the pool and scratch of a previous session
    /// (the dynamic-window path).
    pub fn with_resources(
        geo: &'g GeoGraph,
        env: &CloudEnv,
        state: HybridState<'g>,
        config: RlCutConfig,
        resources: SessionResources,
    ) -> Self {
        let agents = AgentPool::new(geo.num_vertices(), env.num_dcs());
        Self::assemble(geo, env, state, config, resources, LocalProposer { agents })
    }

    /// Rebuilds a session from a checkpoint, bit-exact with the session
    /// that saved it: LA state, UCB statistics, migration RNG, masters,
    /// the incrementally tracked movement cost, and the best-plan tracker
    /// are all restored verbatim, so the next [`Self::step`] makes the
    /// same decisions the uninterrupted run would have made.
    ///
    /// The Eq 14 sampling scheduler restarts its wall-clock measurements
    /// (they are not reproducible state); only `t_opt`-budgeted schedules
    /// observe the difference.
    pub fn resume(
        geo: &'g GeoGraph,
        env: &CloudEnv,
        checkpoint: &TrainerCheckpoint,
        config: RlCutConfig,
        profile: TrafficProfile,
        num_iterations: f64,
    ) -> Self {
        assert_eq!(
            checkpoint.seed, config.seed,
            "checkpoint was written by a run with seed {}, config has {}",
            checkpoint.seed, config.seed
        );
        assert_eq!(checkpoint.masters.len(), geo.num_vertices());
        assert_eq!(checkpoint.num_dcs as usize, env.num_dcs());
        let agents = AgentPool::from_parts(
            checkpoint.num_dcs as usize,
            checkpoint.probs.clone(),
            checkpoint.plays.clone(),
            checkpoint.mean_reward.clone(),
            checkpoint.total_plays.clone(),
        );
        let mut state = HybridState::from_masters(
            geo,
            env,
            checkpoint.masters.clone(),
            checkpoint.theta as usize,
            profile,
            num_iterations,
        );
        state.override_movement_cost(checkpoint.movement_cost);
        let resources = SessionResources::default();
        let mut session =
            Self::assemble(geo, env, state, config, resources, LocalProposer { agents });
        session.rng = SmallRng::from_state(checkpoint.rng_state);
        session.best = (checkpoint.best_masters.clone(), checkpoint.best_objective);
        session.step_index = checkpoint.step as usize;
        session.converged = checkpoint.converged;
        session
    }

    /// Captures the trainer's logical state. Pure function of the training
    /// history: the same seed and step always produce byte-identical
    /// checkpoints (wall-clock scheduler state is excluded by design).
    pub fn checkpoint(&self) -> TrainerCheckpoint {
        let st = self.state.read();
        let agents = &self.proposer.agents;
        let (probs, plays, mean_reward, total_plays) = agents.snapshot();
        TrainerCheckpoint {
            seed: self.config.seed,
            step: self.step_index as u32,
            theta: st.theta() as u64,
            num_dcs: agents.num_actions() as u32,
            masters: st.core().masters().to_vec(),
            probs: probs.to_vec(),
            plays: plays.to_vec(),
            mean_reward: mean_reward.to_vec(),
            total_plays: total_plays.to_vec(),
            rng_state: self.rng.state(),
            movement_cost: st.core().movement_cost(),
            best_masters: self.best.0.clone(),
            best_objective: self.best.1,
            converged: self.converged,
        }
    }

    /// Executes one training step (Fig 5 phases 1–5) under `env` and
    /// returns its telemetry, or `None` if the run is over (converged,
    /// horizon reached, sampling budget exhausted).
    pub fn step(&mut self, env: &CloudEnv) -> Option<StepStats> {
        let Ok(stats) = self.step_observed(env, &mut NoopObserver);
        stats
    }

    /// Reacts to a WAN environment change (the recovery policy's in-process
    /// half): rebuilds the placement state from the current masters under
    /// the new environment — the incremental Eq 4 movement cost was priced
    /// under the old one — evacuates every master off dark DCs, resets the
    /// best-plan tracker (pre-fault objectives are not comparable), and
    /// restarts the sampling scheduler's measurements, which makes the
    /// fault register as a dynamicity spike for the Eq 14 schedule.
    ///
    /// Returns the evacuation report if any DC was dark, `Ok(None)` for a
    /// pure bandwidth/price change.
    pub fn on_environment_change(
        &mut self,
        view: &FaultyEnv,
    ) -> Result<Option<EvacuationReport>, PlanError> {
        let env = view.env();
        let (masters, theta, profile, num_iterations) = {
            let st = self.state.read();
            let core = st.core();
            (core.masters().to_vec(), st.theta(), core.profile().clone(), core.num_iterations())
        };
        let mut state =
            HybridState::from_masters(self.geo, env, masters, theta, profile, num_iterations);
        let report = if view.any_dead() {
            Some(state.evacuate(env, view.dead_flags(), &mut self.scratch)?)
        } else {
            None
        };
        self.best = (state.core().masters().to_vec(), state.objective(env));
        self.state = RwLock::new(state);
        self.scheduler = build_scheduler(&self.config);
        self.converged = false;
        self.exhausted = false;
        Ok(report)
    }
}

impl Proposer for LocalProposer {
    type Error = Infallible;

    /// Scores on the pool, then runs the LA updates serially in sampled
    /// order (deterministic).
    fn propose(
        &mut self,
        ctx: &mut StepCtx<'_, '_>,
        sampled: &[VertexId],
        step_obj: &Objective,
        weights: Weights,
    ) -> Result<(Vec<Move>, Duration), Infallible> {
        let score_start = Instant::now();
        let rho = score_phase(ctx, sampled, step_obj, weights);
        let score_duration = score_start.elapsed();
        let st = ctx.state.read();
        let proposals = sampled
            .iter()
            .zip(&rho)
            .filter_map(|(&v, &best_dc)| {
                let selected = self.agents.learn(v, best_dc, ctx.config);
                (selected != st.master(v)).then_some((v, selected))
            })
            .collect();
        Ok((proposals, score_duration))
    }
}

fn build_order(geo: &GeoGraph, config: &RlCutConfig) -> Vec<VertexId> {
    match config.sample_strategy {
        SampleStrategy::LowestDegree => degree_ascending_order(&geo.graph),
        SampleStrategy::Random => {
            let mut all: Vec<VertexId> = (0..geo.num_vertices() as VertexId).collect();
            all.shuffle(&mut SmallRng::seed_from_u64(config.seed ^ 0x5a17_a8e2));
            all.retain(|&v| geo.graph.degree(v) > 0);
            all
        }
    }
}

fn build_scheduler(config: &RlCutConfig) -> SampleScheduler {
    let mut scheduler = SampleScheduler::new(
        config.t_opt.map(|d| d.as_secs_f64()),
        config.fixed_sample_rate,
        config.initial_sample_rate,
        config.max_steps,
    );
    if let Some(lambda) = config.sampling_recency {
        scheduler = scheduler.with_recency(lambda);
    }
    scheduler
}

/// The best-plan order: a feasible (within-budget) plan beats any
/// infeasible one; then lower transfer time, or lower cost while both are
/// infeasible, wins.
fn beats(candidate: &Objective, incumbent: &Objective, budget: f64) -> bool {
    let cand_ok = candidate.total_cost() <= budget;
    let inc_ok = incumbent.total_cost() <= budget;
    match (cand_ok, inc_ok) {
        (true, false) => true,
        (false, true) => false,
        (true, true) => candidate.transfer_time < incumbent.transfer_time,
        (false, false) => candidate.total_cost() < incumbent.total_cost(),
    }
}

/// Computes ρ_v (the score-optimal DC, Eq 10/11) for every sampled agent.
/// Returns one entry per agent, aligned with `sampled`.
///
/// Sequential on the caller (session-resident scratch) without a pool or
/// below [`PARALLEL_THRESHOLD`]; otherwise on the pool. Both produce
/// bit-identical ρ — workers only fill disjoint per-vertex slots.
fn score_phase(
    ctx: &mut StepCtx<'_, '_>,
    sampled: &[VertexId],
    step_obj: &Objective,
    weights: Weights,
) -> Vec<DcId> {
    let env = ctx.env;
    let state = ctx.state;
    // One batched kernel sweep scores every destination of an agent; the
    // per-worker scratch arena makes the hot loop allocation-free.
    let best_of = |st: &HybridState<'_>, v: VertexId, scratch: &mut MoveScratch| -> DcId {
        let objs = st.evaluate_all_moves(env, v, scratch);
        best_destination(step_obj, objs, st.master(v), weights)
    };
    let pool = match ctx.pool {
        Some(pool) if sampled.len() >= PARALLEL_THRESHOLD => pool,
        _ => {
            let st = state.read();
            let scratch = &mut *ctx.scratch;
            return sampled.iter().map(|&v| best_of(&st, v, scratch)).collect();
        }
    };
    let threads = pool.threads();
    let groups = if ctx.config.disable_straggler_mitigation {
        straggler::round_robin_assignment(sampled, threads)
    } else {
        straggler::balanced_assignment(&ctx.geo.graph, sampled, threads)
    };
    let slots: Vec<Mutex<Vec<(VertexId, DcId)>>> =
        (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    pool.run_on_all(&|worker, scratch| {
        let st = state.read();
        let mut out = slots[worker].lock();
        out.extend(groups[worker].iter().map(|&v| (v, best_of(&st, v, scratch))));
    })
    .unwrap_or_else(|e| panic!("score phase: {e}"));
    let mut rho_by_vertex: Vec<DcId> = vec![0; ctx.geo.num_vertices()];
    for slot in slots {
        for (v, d) in slot.into_inner() {
            rho_by_vertex[v as usize] = d;
        }
    }
    sampled.iter().map(|&v| rho_by_vertex[v as usize]).collect()
}

/// Applies move proposals batch-by-batch (§V-A): batch members are
/// evaluated against the frozen batch-start state and accepted iff their
/// Eq 10 score is positive; accepted moves apply atomically before the
/// next batch. Returns the applied moves in exact apply order.
///
/// Sequential without a pool or at `batch_size = 1` (the strictly
/// sequential Fig 7 flow: the "frozen" state is simply the live state).
/// On the pool the frozen batch objective is computed **once** per batch
/// by the leader and shared read-only, workers evaluate disjoint batch
/// members, and only worker 0 applies — in chunk order over the accept
/// flags, which is also how the applied list is read back afterwards.
fn migration_phase(ctx: &mut StepCtx<'_, '_>, proposals: &[Move], weights: Weights) -> Vec<Move> {
    let env = ctx.env;
    let state = ctx.state;
    let batch = ctx.config.batch_size.max(1);
    let mut applied = Vec::new();
    if proposals.is_empty() {
        return applied;
    }
    let pool = match ctx.pool {
        Some(pool) if batch > 1 => pool,
        _ => {
            let mut st = state.write();
            let scratch = &mut *ctx.scratch;
            for chunk in proposals.chunks(batch) {
                let obj = st.objective(env);
                let accepts: Vec<bool> = chunk
                    .iter()
                    .map(|&(v, to)| {
                        score(&obj, &st.evaluate_move_with(env, v, to, scratch), weights) > 0.0
                    })
                    .collect();
                for (&(v, to), ok) in chunk.iter().zip(accepts) {
                    if ok {
                        st.apply_move_with(env, v, to, scratch);
                        applied.push((v, to));
                    }
                }
            }
            return applied;
        }
    };

    let threads = pool.threads();
    let accept: Vec<AtomicBool> = (0..proposals.len()).map(|_| AtomicBool::new(false)).collect();
    let barrier = Barrier::new(threads);
    // Frozen batch-start objective, written by the leader (before the
    // first batch, then right after each apply) and read by everyone
    // after the next barrier — the two barriers that already fence
    // apply-vs-read also fence this slot.
    let shared_obj =
        RwLock::new(Objective { transfer_time: 0.0, movement_cost: 0.0, runtime_cost: 0.0 });
    pool.run_on_all(&|worker, scratch| {
        if worker == 0 {
            *shared_obj.write() = state.read().objective(env);
        }
        barrier.wait();
        for (bi, chunk) in proposals.chunks(batch).enumerate() {
            {
                let st = state.read();
                let obj = *shared_obj.read();
                for (j, &(v, to)) in chunk.iter().enumerate() {
                    if j % threads != worker {
                        continue;
                    }
                    let ok =
                        score(&obj, &st.evaluate_move_with(env, v, to, scratch), weights) > 0.0;
                    accept[bi * batch + j].store(ok, Ordering::Relaxed);
                }
            }
            barrier.wait();
            if worker == 0 {
                {
                    let mut st = state.write();
                    for (j, &(v, to)) in chunk.iter().enumerate() {
                        if accept[bi * batch + j].load(Ordering::Relaxed) {
                            st.apply_move_with(env, v, to, scratch);
                        }
                    }
                }
                *shared_obj.write() = state.read().objective(env);
            }
            // Keep later batches from reading a half-applied state (or
            // a stale frozen objective).
            barrier.wait();
        }
    })
    .unwrap_or_else(|e| panic!("migration phase: {e}"));
    applied.extend(
        proposals.iter().zip(&accept).filter(|(_, ok)| ok.load(Ordering::Relaxed)).map(|(&m, _)| m),
    );
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::{rmat, RmatConfig};
    use geograph::locality::LocalityConfig;
    use geosim::regions::ec2_eight_regions;
    use geosim::Heterogeneity;

    fn setup(seed: u64) -> (GeoGraph, CloudEnv) {
        let g = rmat(&RmatConfig::social(1024, 8192), seed);
        (GeoGraph::from_graph(g, &LocalityConfig::paper_default(seed)), ec2_eight_regions())
    }

    fn default_config(geo: &GeoGraph, env: &CloudEnv) -> RlCutConfig {
        let budget = geosim::cost::default_budget(env, &geo.locations, &geo.data_sizes, 0.4);
        RlCutConfig::new(budget).with_seed(1).with_threads(2)
    }

    #[test]
    fn improves_transfer_time_over_natural() {
        let (geo, env) = setup(1);
        let config = default_config(&geo, &env);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let natural = HybridState::natural(&geo, &env, 8, profile.clone(), 10.0).objective(&env);
        let result = partition(&geo, &env, profile, 10.0, &config);
        let trained = result.final_objective(&env);
        assert!(
            trained.transfer_time < natural.transfer_time * 0.9,
            "trained {} vs natural {}",
            trained.transfer_time,
            natural.transfer_time
        );
        assert!(result.total_migrations() > 0);
    }

    #[test]
    fn respects_budget() {
        let (geo, env) = setup(2);
        let config = default_config(&geo, &env);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let result = partition(&geo, &env, profile, 10.0, &config);
        assert!(
            result.final_objective(&env).total_cost() <= config.budget,
            "cost {} budget {}",
            result.final_objective(&env).total_cost(),
            config.budget
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (geo, env) = setup(3);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let c1 = default_config(&geo, &env).with_threads(1);
        let c4 = default_config(&geo, &env).with_threads(4);
        let r1 = partition(&geo, &env, profile.clone(), 10.0, &c1);
        let r4 = partition(&geo, &env, profile, 10.0, &c4);
        assert_eq!(r1.state.core().masters(), r4.state.core().masters());
    }

    #[test]
    fn migration_deterministic_across_thread_counts_1_2_4_8() {
        // Full sampling with the paper's batch size drives both pool
        // phases hard: every step proposes and batch-applies many moves,
        // so this is the migration-phase determinism contract (the
        // original test mostly exercises scoring).
        let (geo, env) = setup(12);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let run = |threads: usize| {
            let c = default_config(&geo, &env)
                .with_threads(threads)
                .with_fixed_sample_rate(1.0)
                .with_max_steps(4);
            partition(&geo, &env, profile.clone(), 10.0, &c)
        };
        let baseline = run(1);
        assert!(baseline.total_migrations() > 0, "nothing migrated; test is vacuous");
        for threads in [2usize, 4, 8] {
            let r = run(threads);
            assert_eq!(
                baseline.state.core().masters(),
                r.state.core().masters(),
                "thread count {threads} diverged"
            );
            assert_eq!(
                baseline.total_migrations(),
                r.total_migrations(),
                "applied-move count changed at {threads} threads"
            );
        }
    }

    #[test]
    fn oversized_scan_cap_is_bit_identical_to_uncapped() {
        // `max_scan: None` and a cap that never binds must both take the
        // untouched pre-knob path: same RNG stream, same masters, same
        // per-step telemetry.
        let (geo, env) = setup(16);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let base = default_config(&geo, &env).with_fixed_sample_rate(1.0).with_max_steps(3);
        let uncapped = partition(&geo, &env, profile.clone(), 10.0, &base.clone());
        let capped = partition(&geo, &env, profile, 10.0, &base.with_max_scan(usize::MAX));
        assert_eq!(uncapped.state.core().masters(), capped.state.core().masters());
        assert_eq!(uncapped.total_migrations(), capped.total_migrations());
    }

    #[test]
    fn scan_cap_bounds_every_step_and_blocks_convergence() {
        let (geo, env) = setup(17);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let config = default_config(&geo, &env)
            .with_fixed_sample_rate(1.0)
            .with_max_scan(100)
            .with_max_steps(6);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let state =
            HybridState::from_masters(&geo, &env, geo.locations.clone(), theta, profile, 10.0);
        let mut session = TrainerSession::new(&geo, &env, state, config);
        while session.step(&env).is_some() {}
        assert_eq!(session.steps().len(), 6, "capped steps must not converge early");
        assert!(!session.converged(), "a capped scan sees only a window — no convergence claim");
        let mut starts = std::collections::HashSet::new();
        for stats in session.steps() {
            assert!(stats.num_agents <= 100, "step scanned {} agents", stats.num_agents);
            starts.insert(stats.num_agents);
        }
        // Full 1024-agent sample, cap 100: every window is exactly full.
        assert_eq!(starts.into_iter().collect::<Vec<_>>(), vec![100]);
    }

    #[test]
    fn pool_arenas_stay_warm_across_steps() {
        // With full sampling the per-worker score groups are identical
        // every step (LPT over the same agents), so worker arenas reach
        // their steady-state capacity during step 1 and must never regrow.
        // batch_size 1 keeps migration on the sequential path so the
        // only pool work is the (static) scoring assignment.
        let (geo, env) = setup(14);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let config = default_config(&geo, &env)
            .with_threads(4)
            .with_fixed_sample_rate(1.0)
            .with_batch_size(1)
            .with_max_steps(5);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let state =
            HybridState::from_masters(&geo, &env, geo.locations.clone(), theta, profile, 10.0);
        let mut session = TrainerSession::new(&geo, &env, state, config);
        assert!(session.step(&env).is_some());
        let warm = session.pool_scratch_stats().expect("threads=4 builds a pool");
        assert!(warm.iter().all(|s| s.width == env.num_dcs()), "{warm:?}");
        assert!(warm.iter().all(|s| s.neighbor_capacity > 0), "{warm:?}");
        while session.step(&env).is_some() {}
        let steady = session.pool_scratch_stats().unwrap();
        assert_eq!(warm, steady, "arenas regrew after step 1");
    }

    #[test]
    fn resume_cycles_do_not_leak_pool_workers() {
        let (geo, env) = setup(15);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let config = default_config(&geo, &env).with_threads(4).with_max_steps(3);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let build_state = || {
            HybridState::from_masters(
                &geo,
                &env,
                geo.locations.clone(),
                theta,
                profile.clone(),
                10.0,
            )
        };
        let before = crate::pool::live_os_threads();
        let mut session = TrainerSession::new(&geo, &env, build_state(), config.clone());
        session.step(&env);
        let checkpoint = session.checkpoint();
        for _ in 0..5 {
            // Each resume builds a fresh pool; dropping the previous
            // session must join its workers.
            session = TrainerSession::resume(
                &geo,
                &env,
                &checkpoint,
                config.clone(),
                profile.clone(),
                10.0,
            );
            session.step(&env);
        }
        drop(session);
        let after = crate::pool::live_os_threads_settled(before + 1);
        // /proc probe returns 0 off-Linux; both sides are then 0.
        assert!(
            after <= before + 1,
            "pool workers leaked across resume cycles: {before} -> {after}"
        );
    }

    #[test]
    fn resources_carry_the_pool_across_sessions() {
        // The dynamic-window contract: finish_with_resources hands the
        // worker pool to the next session, which adopts it instead of
        // respawning — same OS threads before and after.
        let (geo, env) = setup(16);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let config = default_config(&geo, &env).with_threads(4).with_max_steps(2);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let state = HybridState::from_masters(
            &geo,
            &env,
            geo.locations.clone(),
            theta,
            profile.clone(),
            10.0,
        );
        let mut s1 = TrainerSession::new(&geo, &env, state, config.clone());
        while s1.step(&env).is_some() {}
        let ids_before = s1.pool_thread_ids().expect("threads=4 builds a pool");
        let (r1, resources) = s1.finish_with_resources(&env);
        assert_eq!(resources.pool_thread_ids().as_deref(), Some(ids_before.as_slice()));
        let state2 = HybridState::from_masters(
            &geo,
            &env,
            r1.state.core().masters().to_vec(),
            theta,
            profile,
            10.0,
        );
        let s2 = TrainerSession::with_resources(&geo, &env, state2, config, resources);
        assert_eq!(s2.pool_thread_ids().as_deref(), Some(ids_before.as_slice()));
    }

    #[test]
    fn mismatched_carried_pool_is_replaced() {
        let (geo, env) = setup(17);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let build_state = |p: TrafficProfile| {
            HybridState::from_masters(&geo, &env, geo.locations.clone(), theta, p, 10.0)
        };
        let donor = TrainerSession::new(
            &geo,
            &env,
            build_state(profile.clone()),
            default_config(&geo, &env).with_threads(4).with_max_steps(1),
        );
        let donor_ids = donor.pool_thread_ids().unwrap();
        let (_, resources) = donor.finish_with_resources(&env);
        // Next window wants 2 threads: the 4-worker pool must not be kept.
        let s = TrainerSession::with_resources(
            &geo,
            &env,
            build_state(profile),
            default_config(&geo, &env).with_threads(2).with_max_steps(1),
            resources,
        );
        let ids = s.pool_thread_ids().unwrap();
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|id| !donor_ids.contains(id)));
    }

    #[test]
    fn finish_with_resources_matches_finish() {
        // The move-based reconcile to the best plan must land on the same
        // masters as finish()'s from-scratch rebuild, with a consistent
        // incremental state.
        let (geo, env) = setup(18);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let config = default_config(&geo, &env).with_max_steps(6);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let build = || {
            let state = HybridState::from_masters(
                &geo,
                &env,
                geo.locations.clone(),
                theta,
                profile.clone(),
                10.0,
            );
            let mut s = TrainerSession::new(&geo, &env, state, config.clone());
            let Ok(()) = s.run(&env, &mut NoopObserver);
            s
        };
        let rebuilt = build().finish(&env);
        let (reconciled, _resources) = build().finish_with_resources(&env);
        assert_eq!(rebuilt.state.core().masters(), reconciled.state.core().masters());
        reconciled.state.check_consistency(&env);
    }

    #[test]
    fn lowest_degree_order_is_the_degree_sort_without_isolated_vertices() {
        // 16 trailing isolated vertices beside whatever R-MAT left bare.
        let edges: Vec<_> = rmat(&RmatConfig::social(1024, 8192), 23).edges().collect();
        let g = geograph::Graph::from_edges(1024 + 16, &edges);
        let geo = GeoGraph::from_graph(g, &LocalityConfig::paper_default(23));
        let config = default_config(&geo, &ec2_eight_regions());
        assert!(matches!(config.sample_strategy, SampleStrategy::LowestDegree));
        let mut expected: Vec<VertexId> = geo.graph.vertices().collect();
        expected.sort_by_key(|&v| (geo.graph.degree(v), v));
        expected.retain(|&v| geo.graph.degree(v) > 0);
        assert!(expected.len() + 16 <= geo.num_vertices());
        assert_eq!(build_order(&geo, &config), expected);
    }

    #[test]
    fn focus_on_fronts_touched_neighborhoods() {
        let (geo, env) = setup(19);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let state =
            HybridState::from_masters(&geo, &env, geo.locations.clone(), theta, profile, 10.0);
        let config = default_config(&geo, &env);
        let mut session = TrainerSession::new(&geo, &env, state, config);
        let seeds: Vec<VertexId> = vec![3, 99];
        let mut hot: Vec<VertexId> = seeds.clone();
        for &s in &seeds {
            hot.extend_from_slice(geo.graph.out_neighbors(s));
            hot.extend_from_slice(geo.graph.in_neighbors(s));
        }
        hot.sort_unstable();
        hot.dedup();
        hot.retain(|&v| geo.graph.degree(v) > 0);
        session.focus_on(&seeds);
        let order = &session.order;
        // Every trainable hot vertex sits in the prefix, in a stable
        // (degree-preserving) order within each half.
        let prefix: Vec<VertexId> = order[..hot.len()].to_vec();
        let mut sorted_prefix = prefix.clone();
        sorted_prefix.sort_unstable();
        assert_eq!(sorted_prefix, hot);
        for w in order[..hot.len()].windows(2) {
            assert!(
                (geo.graph.degree(w[0]), w[0]) < (geo.graph.degree(w[1]), w[1]),
                "hot prefix lost its degree order"
            );
        }
        // Out-of-range seeds are ignored, empty seeds are a no-op.
        let before = session.order.clone();
        session.focus_on(&[]);
        session.focus_on(&[u32::MAX]);
        assert_eq!(session.order, before);
    }

    #[test]
    fn incremental_state_stays_consistent() {
        let (geo, env) = setup(4);
        let config = default_config(&geo, &env);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let result = partition(&geo, &env, profile, 10.0, &config);
        result.state.check_consistency(&env);
    }

    #[test]
    fn fixed_sample_rate_trains_prefix_only() {
        let (geo, env) = setup(5);
        let config = default_config(&geo, &env).with_fixed_sample_rate(0.1);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let result = partition(&geo, &env, profile, 10.0, &config);
        let trainable =
            (0..geo.num_vertices() as VertexId).filter(|&v| geo.graph.degree(v) > 0).count();
        for s in &result.steps {
            assert_eq!(s.num_agents, (trainable as f64 * 0.1).ceil() as usize);
        }
    }

    #[test]
    fn more_agents_more_overhead() {
        // The Fig 8 mechanism: overhead grows with participating agents.
        let (geo, env) = setup(6);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let small = partition(
            &geo,
            &env,
            profile.clone(),
            10.0,
            &default_config(&geo, &env).with_fixed_sample_rate(0.05).with_threads(1),
        );
        let large = partition(
            &geo,
            &env,
            profile,
            10.0,
            &default_config(&geo, &env).with_fixed_sample_rate(1.0).with_threads(1),
        );
        let t_small: f64 = small.steps.iter().map(|s| s.duration.as_secs_f64()).sum();
        let t_large: f64 = large.steps.iter().map(|s| s.duration.as_secs_f64()).sum();
        let per_step_small = t_small / small.steps.len() as f64;
        let per_step_large = t_large / large.steps.len() as f64;
        assert!(
            per_step_large > 2.0 * per_step_small,
            "full sampling {per_step_large}s/step vs 5% {per_step_small}s/step"
        );
    }

    #[test]
    fn beats_natural_under_high_heterogeneity() {
        // The Fig 3 setting: more heterogeneity, more to win.
        let (geo, _) = setup(7);
        let env = Heterogeneity::High.ec2_environment();
        let config = {
            let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
            RlCutConfig::new(budget).with_seed(7).with_threads(2)
        };
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let natural = HybridState::natural(&geo, &env, 8, profile.clone(), 10.0).objective(&env);
        let result = partition(&geo, &env, profile, 10.0, &config);
        assert!(result.final_objective(&env).transfer_time < natural.transfer_time);
    }

    #[test]
    fn transfer_time_monotone_under_pure_performance_weights() {
        // While under budget every accepted move strictly improved the
        // frozen-state score; with batch_size 1 that means monotone
        // per-step transfer time.
        let (geo, env) = setup(8);
        let config = default_config(&geo, &env).with_batch_size(1).with_threads(1);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let result = partition(&geo, &env, profile, 10.0, &config);
        for w in result.steps.windows(2) {
            assert!(
                w[1].transfer_time <= w[0].transfer_time * (1.0 + 1e-9),
                "step regressed: {} -> {}",
                w[0].transfer_time,
                w[1].transfer_time
            );
        }
    }

    #[test]
    fn t_opt_bounds_overhead() {
        let (geo, env) = setup(9);
        let t_opt = std::time::Duration::from_millis(200);
        let config = default_config(&geo, &env).with_t_opt(t_opt);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let result = partition(&geo, &env, profile, 10.0, &config);
        // The schedule may overshoot by at most ~one step's duration.
        let total: f64 = result.steps.iter().map(|s| s.duration.as_secs_f64()).sum();
        assert!(total < 3.0 * t_opt.as_secs_f64(), "overhead {total}s vs T_opt 0.2s");
    }

    #[test]
    fn penalty_mode_runs_and_converges_slower_or_equal() {
        let (geo, env) = setup(10);
        let mut config = default_config(&geo, &env);
        config.use_penalty = true;
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let with_penalty = partition(&geo, &env, profile.clone(), 10.0, &config);
        config.use_penalty = false;
        let without = partition(&geo, &env, profile, 10.0, &config);
        // Same 10-step horizon: no-penalty must do at least as well (Fig 6).
        assert!(
            without.final_objective(&env).transfer_time
                <= with_penalty.final_objective(&env).transfer_time * 1.05
        );
    }
}
