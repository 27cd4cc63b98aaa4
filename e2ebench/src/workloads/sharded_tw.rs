//! `sharded-tw`: the same static run on the Twitter analog, trained by
//! the sharded runtime.
//!
//! Each of the 4 shards loads its own view straight from the edge stream;
//! `ShardedTrainer` steps over the in-process shuffle on 2 threads for the
//! same horizon, then PageRank runs on the trained plan. The trainer math
//! is the single-process one, reached through the sharded step with its
//! shuffle and row sync.

use geograph::stream::{ScopedPool, StreamConfig};
use geograph::Dataset;
use geosim::regions::ec2_eight_regions;
use geosim::CloudEnv;
use rlcut::{shard_carry_streamed, InProcessShuffle, SessionResources, ShardCarry, ShardedTrainer};

use super::static_lj::{config, initial_state, prepare, Prepared, SetupTimes};
use super::{
    check_plan, record_sessions, repeat_training, run_engine, secs, sessions_for, timed,
    train_session, SessionTimes, SETUP_REPS,
};
use crate::inputs::{self, MemChunks};
use crate::outcome::Outcome;
use crate::{trace, Args, MAX_THREADS};

/// About 167k vertices and 5.4M edges.
pub const SCALE: f64 = 0.004;
pub const SHARDS: usize = 4;
/// Nominal session time on the reference host (2 vCPUs); one session per
/// 9 s of `--seconds`.
const SESSION_S: f64 = 9.0;

/// Loads every shard's view from the stream. Returns the carry and the
/// largest shard's peak build footprint as a share of the full CSR's.
fn load_shards(
    out: &mut Outcome,
    chunks: &MemChunks,
    prepared: &Prepared,
    times: &mut SetupTimes,
) -> Option<(ShardCarry, f64)> {
    let pool = ScopedPool(MAX_THREADS);
    let (loaded, wall) = trace::span("geograph.shard_ingest", || {
        shard_carry_streamed(chunks, StreamConfig::cleaned(), SHARDS, &pool)
    });
    out.op(loaded.is_ok());
    times.shard_ingest.push(secs(wall));
    match loaded {
        Ok((carry, reports)) => {
            let csr = prepared.ingest.csr_bytes.max(1) as f64;
            let peak = reports.iter().map(|r| r.peak_bytes() as f64 / csr).fold(0.0, f64::max);
            Some((carry, peak))
        }
        Err(e) => {
            eprintln!("  shard ingest failed: {e}");
            None
        }
    }
}

fn sharded_session<'g>(
    out: &mut Outcome,
    prepared: &'g Prepared,
    env: &CloudEnv,
    carry: ShardCarry,
    seed: u64,
    times: &mut SetupTimes,
) -> Option<(rlcut::RlCutResult<'g>, SessionTimes)> {
    let state = initial_state(prepared, env, times);
    let config = config(prepared, seed);
    train_session(out, env, || {
        ShardedTrainer::with_parts(
            &prepared.geo,
            env,
            state,
            config,
            SessionResources::default(),
            carry,
            Box::new(InProcessShuffle::new(SHARDS)),
        )
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (chunks, gen_s) =
        timed(|| inputs::rmat_dataset(Dataset::Twitter, SCALE, args.seed, MAX_THREADS));
    out.set("bench.input_gen_s", gen_s);
    let env = ec2_eight_regions();

    let mut times = SetupTimes::default();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        trace::new_run();
        drop(kept.take()); // free the previous set-up's graph and views first
        let (prepared, setup_s) = timed(|| {
            let (prepared, state_bytes) = prepare(&mut out, &chunks, &env, args.seed, &mut times)?;
            let (carry, peak) = load_shards(&mut out, &chunks, &prepared, &mut times)?;
            Some((prepared, state_bytes, carry, peak))
        });
        times.setup.push(setup_s);
        kept = prepared;
    }
    let Some((prepared, state_bytes, carry, shard_peak)) = kept else { return out };
    eprintln!(
        "  TW analog: {} vertices, {} edges, {SHARDS} shards",
        prepared.geo.num_vertices(),
        prepared.geo.num_edges()
    );
    out.set("geograph.shard_peak_frac_max", shard_peak);

    let mut sessions = Vec::new();
    let trained =
        repeat_training(&mut out, sessions_for(args.seconds, SESSION_S), &mut sessions, |out| {
            sharded_session(out, &prepared, &env, carry.clone(), args.seed, &mut times)
        });
    drop(carry);
    times.record(&mut out, &prepared, state_bytes);
    let Some(result) = trained else { return out };
    record_sessions(&mut out, &sessions);
    check_plan(&mut out, &result, &env, prepared.budget);
    run_engine(&mut out, &prepared.geo, &env, result.state.core());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlcut::TrainerSession;

    /// The sharded path this workload drives trains the single-process
    /// trainer's masters, bit for bit.
    #[test]
    fn sharded_masters_equal_single_process_on_a_small_seed() {
        let chunks = inputs::rmat_dataset(Dataset::Twitter, 0.0002, 11, 2);
        let env = ec2_eight_regions();
        let mut out = Outcome::default();
        let mut times = SetupTimes::default();
        let (prepared, _) = prepare(&mut out, &chunks, &env, 11, &mut times).unwrap();
        let (carry, _) = load_shards(&mut out, &chunks, &prepared, &mut times).unwrap();
        let (sharded, _) =
            sharded_session(&mut out, &prepared, &env, carry, 11, &mut times).unwrap();
        let state = initial_state(&prepared, &env, &mut times);
        let config = config(&prepared, 11);
        let (single, _) = train_session(&mut out, &env, || {
            Ok(TrainerSession::new(&prepared.geo, &env, state, config))
        })
        .unwrap();
        assert_eq!(out.failed, 0);
        assert!(sharded.total_migrations() > 0, "the test must exercise migrations");
        assert_eq!(sharded.state.core().masters(), single.state.core().masters());
    }
}
