//! Training observability: a callback interface the trainer reports to
//! after every step, for progress bars, live dashboards, or experiment
//! logging — without coupling the trainer to any output format.

use crate::stats::StepStats;

/// Receives training progress. All methods have default no-op impls, so
/// implementors override only what they need.
pub trait TrainingObserver {
    /// Called before the first step with the training setup.
    fn on_start(&mut self, _num_agents: usize, _max_steps: usize) {}
    /// Called after every completed step.
    fn on_step(&mut self, _step: usize, _stats: &StepStats) {}
    /// Called once when training finishes.
    fn on_finish(&mut self, _converged: bool) {}
}

/// The default observer: does nothing.
#[derive(Default)]
pub struct NoopObserver;

impl TrainingObserver for NoopObserver {}

/// An observer that collects a human-readable progress log — handy in
/// examples and for debugging experiment runs.
#[derive(Default)]
pub struct LogObserver {
    pub lines: Vec<String>,
}

impl TrainingObserver for LogObserver {
    fn on_start(&mut self, num_agents: usize, max_steps: usize) {
        self.lines.push(format!("training: {num_agents} agents, up to {max_steps} steps"));
    }

    fn on_step(&mut self, step: usize, stats: &StepStats) {
        self.lines.push(format!(
            "step {step}: rate {:.3}, {} agents, {} migrations, T={:.3e}, cost=${:.4}, {:?}",
            stats.sample_rate,
            stats.num_agents,
            stats.migrations,
            stats.transfer_time,
            stats.total_cost,
            stats.duration
        ));
    }

    fn on_finish(&mut self, converged: bool) {
        self.lines.push(format!("finished (converged: {converged})"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::generators::{rmat, RmatConfig};
    use geograph::locality::LocalityConfig;
    use geograph::GeoGraph;
    use geopart::{HybridState, TrafficProfile};
    use geosim::regions::ec2_eight_regions;
    use geosim::CloudEnv;

    /// `partition` with an observer: `new` → `run(env, observer)` →
    /// `finish`.
    fn partition_observed<'g>(
        geo: &'g GeoGraph,
        env: &CloudEnv,
        profile: TrafficProfile,
        config: &crate::RlCutConfig,
        observer: &mut dyn TrainingObserver,
    ) -> crate::RlCutResult<'g> {
        let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
        let state =
            HybridState::from_masters(geo, env, geo.locations.clone(), theta, profile, 10.0);
        let mut session = crate::TrainerSession::new(geo, env, state, config.clone());
        let Ok(()) = session.run(env, observer);
        session.finish(env)
    }

    #[test]
    fn log_observer_captures_every_step() {
        let g = rmat(&RmatConfig::social(512, 4096), 12);
        let geo = GeoGraph::from_graph(g, &LocalityConfig::paper_default(12));
        let env = ec2_eight_regions();
        let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let config = crate::RlCutConfig::new(budget).with_seed(1).with_threads(2);
        let mut log = LogObserver::default();
        let result = partition_observed(&geo, &env, profile, &config, &mut log);
        // start + one per step + finish.
        assert_eq!(log.lines.len(), result.steps.len() + 2);
        assert!(log.lines[0].starts_with("training:"));
        assert!(log.lines.last().unwrap().starts_with("finished"));
    }

    #[test]
    fn observer_does_not_change_results() {
        let g = rmat(&RmatConfig::social(512, 4096), 13);
        let geo = GeoGraph::from_graph(g, &LocalityConfig::paper_default(13));
        let env = ec2_eight_regions();
        let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
        let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
        let config = crate::RlCutConfig::new(budget).with_seed(2).with_threads(2);
        let plain = crate::partition(&geo, &env, profile.clone(), 10.0, &config);
        let mut noop = NoopObserver;
        let observed = partition_observed(&geo, &env, profile, &config, &mut noop);
        assert_eq!(plain.state.core().masters(), observed.state.core().masters());
    }
}
