//! `sim_campaign` — the two deterministic drivers of the shared binding
//! pass, single-threaded: Mini-App cells of 400 units alternating
//! `SimPilotSystem::run` (quiet HPC + cloud adaptors, unit faults with
//! retries) and `Fabric::run` (4 daemons, 8 shards, one daemon stalled
//! mid-cell). CPU-bound and seed-deterministic; the data and read planes do
//! nothing. Every number here is wall clock — virtual time is never reported.

use crate::harness::{timed, Clock, Fnv, Outcome, Plan, Round, WARMUP_OPS};
use crate::trace::Span;
use pilot_core::describe::{PilotDescription, UnitDescription};
use pilot_core::fabric::{Fabric, FabricConfig, KillMode, ScheduledKill};
use pilot_core::retry::{FaultPlan, RetryPolicy};
use pilot_core::sim::SimPilotSystem;
use pilot_core::state::UnitState;
use pilot_infra::cloud::{CloudConfig, CloudProvider};
use pilot_infra::hpc::{HpcCluster, HpcConfig};
use pilot_saga::ResourceAdaptor;
use pilot_sim::{SimDuration, SimRng, SimTime};

pub const CELL_UNITS: u64 = 400;
/// One operation is a pair of cells, one of each driver; this many pairs make
/// a round (about 2 s).
const ROUND_PAIRS: u64 = 500;
/// Pairs of each round replayed from their seeds as that round's recovery
/// drill: 50 cells, about 0.1 s.
const REPLAY_PAIRS: u64 = 25;
/// The warm-up pass that is this workload's set-up is repeated this often, so
/// `setup_s` is an average over repeats like every other number.
const SETUP_REPEATS: usize = 5;
/// Counters are summed over this fixed prefix of pairs, so they repeat
/// exactly per seed however many the timed section fits.
const COUNTED_PAIRS: u64 = 50;

struct Cell {
    /// Units that reached a terminal state.
    terminal: u64,
    digest: u64,
    retries: u64,
    fenced: u64,
    rebalance_ticks: u64,
    /// An exactly-once or completion check failed.
    broken: bool,
}

/// Seed of cell `i` of a campaign.
pub fn cell_seed(seed: u64, i: u64) -> u64 {
    SimRng::new(seed).stream(i).next_u64()
}

fn sim_cell(seed: u64, units: u64) -> Cell {
    let mut sys = SimPilotSystem::new(seed);
    sys.disable_trace();
    sys.set_fault_plan(FaultPlan::none().with_unit_failures(0.1));
    let hpc = sys.add_resource(ResourceAdaptor::hpc(HpcCluster::new(HpcConfig::quiet(
        "hpc", 64,
    ))));
    let cloud = sys.add_resource(ResourceAdaptor::cloud(CloudProvider::new(
        CloudConfig::generic("cloud", 64),
    )));
    for site in [hpc, cloud] {
        sys.submit_pilot(
            SimTime::ZERO,
            site,
            PilotDescription::new(32, SimDuration::from_secs_f64(12.0 * 3600.0)),
        );
    }
    let retry = RetryPolicy::fixed(4, 5.0);
    for i in 0..units {
        sys.submit_unit_fixed(
            SimTime::from_secs_f64(i as f64 * 0.5),
            UnitDescription::new(1).with_retry(retry),
            60.0,
        );
    }
    let report = sys.run(SimTime::from_secs_f64(24.0 * 3600.0));
    let mut h = Fnv::new();
    let mut terminal = 0;
    for u in &report.units {
        h.mix(u.unit.0);
        h.mix(pilot_core::events::unit_state_code(u.state).into());
        h.mix(u.times.finished.unwrap_or(-1.0).to_bits());
        terminal += u64::from(u.state.is_terminal());
    }
    h.mix(report.end_time.as_secs_f64().to_bits());
    h.mix(report.reliability.attempts);
    Cell {
        terminal,
        digest: h.0,
        retries: report.reliability.requeues,
        fenced: 0,
        rebalance_ticks: 0,
        broken: terminal != units || report.count(UnitState::Done) == 0,
    }
}

fn fabric_cell(seed: u64, units: u64) -> Cell {
    let config = FabricConfig {
        n_daemons: 4,
        n_shards: 8,
        seed,
        faults: FaultPlan::none().with_unit_failures(0.05),
        kills: vec![ScheduledKill {
            tick: 10,
            daemon: (seed % 4) as usize,
            mode: KillMode::Stall,
        }],
        ..FabricConfig::default()
    };
    let report = Fabric::run(
        &config,
        (0..units).map(|_| (UnitDescription::new(1), 20)).collect(),
    );
    let mut h = Fnv::new();
    for v in [
        report.ticks,
        report.completed,
        report.exhausted,
        report.retries_charged,
        report.fenced_binds,
        report.fenced_reports,
        report.max_epoch,
        report.bind_stats.binds,
    ] {
        h.mix(v);
    }
    for ev in &report.events {
        for chunk in ev.encode().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h.mix(u64::from_le_bytes(word));
        }
    }
    Cell {
        terminal: report.completed + report.exhausted,
        digest: h.0,
        retries: report.retries_charged,
        fenced: report.fenced_binds + report.fenced_reports,
        rebalance_ticks: report.max_rebalance_latency_ticks().unwrap_or(0),
        broken: !report.exactly_once(),
    }
}

/// Cell `i`: even cells run the DES backend, odd cells the fabric.
fn cell(seed: u64, i: u64, units: u64) -> Cell {
    let s = cell_seed(seed, i);
    if i.is_multiple_of(2) {
        sim_cell(s, units)
    } else {
        fabric_cell(s, units)
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let clock = Clock::start();
    let mut out = Outcome::default();
    let units = plan.scaled(CELL_UNITS, 20);
    let warm_cells = (8 * WARMUP_OPS / plan.scale).div_ceil(units).max(2);

    // Set-up is the warm-up pass: enough cells of both kinds to push a few
    // thousand units through the binding pass before the clock starts.
    for _ in 0..SETUP_REPEATS {
        let (s, ()) = timed(|| {
            for i in 0..warm_cells {
                std::hint::black_box(cell(plan.seed, i, units).digest);
            }
        });
        out.setup_s.push(s);
    }

    let (mut sim_s, mut fab_s, mut sim_units, mut fab_units) = (0.0, 0.0, 0u64, 0u64);
    let (mut retries, mut fenced, mut rebalance) = (0u64, 0u64, 0u64);
    let t_start = clock.now();
    let mut pair = 0u64;
    while clock.now() - t_start < plan.seconds {
        let mut round = Round::default();
        let mut digests = Vec::new();
        let (first_pair, t_round) = (pair, clock.now());
        for _ in 0..ROUND_PAIRS {
            let t0 = clock.now();
            let sim = cell(plan.seed, 2 * pair, units);
            let t1 = clock.now();
            let fab = cell(plan.seed, 2 * pair + 1, units);
            let t2 = clock.now();
            round.latency_ms.push((t2 - t0) * 1e3);
            round.ops += 2 * units;
            round.failed += 2 * units - (sim.terminal + fab.terminal).min(2 * units);
            out.check(!(sim.broken || fab.broken), || {
                format!("pair {pair} lost, duplicated or stranded a unit")
            });
            (sim_s, sim_units) = (sim_s + (t1 - t0), sim_units + sim.terminal);
            (fab_s, fab_units) = (fab_s + (t2 - t1), fab_units + fab.terminal);
            if pair < COUNTED_PAIRS {
                retries += sim.retries + fab.retries;
                fenced += fab.fenced;
                rebalance += fab.rebalance_ticks;
            }
            if pair < first_pair + REPLAY_PAIRS {
                digests.extend([sim.digest, fab.digest]);
            }
            if plan.traced {
                for (name, start_s, end_s) in [("sim_cell", t0, t1), ("fabric_cell", t1, t2)] {
                    out.spans.push(Span {
                        name,
                        start_s,
                        end_s,
                        parent: None,
                        unit: Some(pair),
                    });
                }
            }
            pair += 1;
        }
        round.completed = round.ops - round.failed;
        round.seconds = clock.now() - t_round;
        out.rounds.push(round);

        // The round's recovery drill: its first cells again from their seeds,
        // bit for bit. One repeat per round spreads the samples over the run.
        let (s, again) = timed(|| {
            (2 * first_pair..2 * (first_pair + REPLAY_PAIRS))
                .map(|i| cell(plan.seed, i, units).digest)
                .collect::<Vec<_>>()
        });
        out.recover_s.push(s);
        out.check(again == digests, || {
            format!("cells replayed from pair {first_pair} differ from their first run")
        });
    }

    if plan.traced {
        out.layer("core.sim.units_per_s", sim_units as f64 / sim_s);
        out.layer("core.sim.retries", retries as f64);
        out.layer("core.fabric.units_per_s", fab_units as f64 / fab_s);
        out.layer("core.fabric.fenced_reports", fenced as f64);
        out.layer("core.fabric.rebalance_ticks", rebalance as f64);
    }
    out
}
