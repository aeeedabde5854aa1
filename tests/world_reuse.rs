//! World reuse: a unit world restamped in place must be indistinguishable
//! from a fresh stamp of the same unit. The engine keeps one world per
//! shard and restamps it for every unit it runs
//! (`WorldBlueprint::restamp_unit`), resetting only what the previous
//! unit touched — agents, captures, link state, the event wheel, stats,
//! the RNG. Any state the reset misses leaks from one unit into the next
//! and shows up here as a differing trace, counter or route.
//!
//! Each case draws a random sequence of (vantage, chunk) units, runs
//! every unit twice — in the one reused world and in a fresh
//! `instantiate_unit_scoped` world — and compares everything the unit
//! observed: its `TraceRecord`s, the event-tap `SimCounters`, the
//! ground-truth `Stats`, the traceroute survey, and the clock and event
//! count it ends on.

use ecnudp::core::{
    discover_in, run_trace, run_traceroute_survey, schedule, CampaignConfig, ScheduledTrace,
};
use ecnudp::netsim::{Nanos, SimCounters, Stats};
use ecnudp::pool::{PoolPlan, Scenario, WorldBlueprint};
use proptest::prelude::*;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Target chunks per vantage: unit worlds with different stack sets, so
/// a restamp must also remove the previous unit's server stacks.
const CHUNKS: usize = 3;

/// Two unit worlds per drawn unit is costly in a debug build; 4 cases
/// keep `cargo test -q` quick, and the deep-property job's
/// `PROPTEST_CASES=256` widens the sweep to 32.
fn reuse_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map(|n| (n / 8).max(4))
        .unwrap_or(4)
}

struct Fixture {
    bp: WorldBlueprint,
    cfg: CampaignConfig,
    targets: Vec<Ipv4Addr>,
    per_vantage: Vec<Vec<ScheduledTrace>>,
}

/// A small lossy world (burst loss on the vantage access links, edge
/// loss on every server chain), discovered once and shared by all cases.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cfg = CampaignConfig {
            discovery_rounds: 25,
            traces_per_vantage: Some(2),
            ..CampaignConfig::quick(2015)
        };
        let plan = PoolPlan {
            churn_at: cfg.batch2_start,
            edge_loss: 0.05,
            ..PoolPlan::scaled(40)
        };
        let bp = WorldBlueprint::build(&plan, cfg.seed);
        let mut disco = bp.instantiate();
        let targets = discover_in(&mut disco, &cfg).targets;
        let mut per_vantage = vec![Vec::new(); disco.vantages.len()];
        for st in schedule(&disco, &cfg) {
            per_vantage[st.vantage].push(st);
        }
        Fixture {
            bp,
            cfg,
            targets,
            per_vantage,
        }
    })
}

/// Everything one unit observed, in comparable form.
#[derive(Debug, PartialEq)]
struct UnitObservation {
    traces: Vec<String>,
    routes: String,
    counters: SimCounters,
    stats: Stats,
    now: Nanos,
    events: u64,
    pending: usize,
}

/// Run unit `(vantage, chunk)` in `world` as the engine does: its
/// vantage's schedule against the chunk, then its traceroute slice.
fn observe(world: &mut Scenario, vantage: usize, targets: &[Ipv4Addr]) -> UnitObservation {
    let fx = fixture();
    world.sim.install_event_tap();
    let mut traces = Vec::new();
    for st in &fx.per_vantage[vantage] {
        if world.sim.now() < st.start {
            world.sim.run_until(st.start);
        }
        let rec = run_trace(world, vantage, st.batch, targets, &fx.cfg);
        traces.push(format!("{rec:?}"));
    }
    let routes = run_traceroute_survey(world, vantage, targets, &fx.cfg);
    UnitObservation {
        traces,
        routes: format!("{routes:?}"),
        counters: world.sim.drain_event_counters(),
        stats: world.sim.stats.clone(),
        now: world.sim.now(),
        events: world.sim.events_dispatched(),
        pending: world.sim.pending_events(),
    }
}

fn chunk(targets: &[Ipv4Addr], c: usize) -> &[Ipv4Addr] {
    let n = targets.len();
    &targets[c * n / CHUNKS..(c + 1) * n / CHUNKS]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(reuse_cases()))]
    #[test]
    fn restamped_world_matches_a_fresh_stamp(
        units in proptest::collection::vec((0usize..13, 0usize..CHUNKS), 2..5),
    ) {
        let fx = fixture();
        let mut world = fx.bp.blank_world();
        for (vantage, c) in units {
            let targets = chunk(&fx.targets, c);
            fx.bp.restamp_unit(&mut world, vantage, c, targets);
            let reused = observe(&mut world, vantage, targets);
            let probed: HashSet<Ipv4Addr> = targets.iter().copied().collect();
            let mut fresh = fx.bp.instantiate_unit_scoped(vantage, c, &probed);
            let expected = observe(&mut fresh, vantage, targets);
            prop_assert!(!expected.traces.is_empty());
            prop_assert_eq!(reused, expected, "unit v{} c{} after reuse", vantage, c);
        }
    }
}
