//! The traced run: one campaign on one thread, driven through the crates'
//! public calls in the order the engine makes them, with a span around
//! every call into a layer.
//!
//! spec → plan with churn pinned → blueprint → discovery → per unit
//! (instantiate, traces, survey, `observe_*`, world drop) → `merge_tree`
//! over per-unit reducers → report. Spans live in memory and are written
//! out when the run ends. Allocations are counted with the calling
//! thread's own counters ([`crate::alloc`]) and simulator events with the
//! unit world's event tap, so both repeat exactly from run to run.

use crate::alloc::thread_counts;
use crate::{load_spec, lower, thread_cpu_ticks, Workload};
use ecn_core::{
    discover_in, merge_tree, run_trace_observed, run_traceroute_survey, schedule, CampaignConfig,
    CampaignResult, DiscoveryStats, FullReport, Reduce, RouteCtx, ScheduledTrace, ShardReducers,
    TraceCtx, UnitId,
};
use ecn_netsim::SimCounters;
use ecn_pool::WorldBlueprint;
use std::collections::HashSet;
use std::io::Write;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

/// One span: a call into a layer.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: Option<UnitId>,
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            // sized so recording never reallocates inside a campaign
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, unit: Option<UnitId>) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span; returns its duration in ms.
    pub fn close(&mut self) -> f64 {
        let end = self.now_ns();
        let i = self.open.pop().expect("close without open");
        self.spans[i].end_ns = end;
        (end - self.spans[i].start_ns) as f64 / 1e6
    }

    /// Nanoseconds covered by leaf spans (spans with no children). On one
    /// thread leaves never overlap, so this is the traced time some
    /// layer accounts for.
    pub fn leaf_ns(&self) -> u64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        self.spans
            .iter()
            .zip(has_child)
            .filter(|(_, c)| !c)
            .map(|(s, _)| s.end_ns - s.start_ns)
            .sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let unit = s.unit.map_or("null".to_string(), |u| {
                format!("[{},{}]", u.vantage, u.chunk)
            });
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{unit}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Everything the traced campaign measured, before the layer benches.
#[derive(Default)]
pub struct Traced {
    pub digest: String,
    pub wall_ms: f64,
    pub leaf_ms: f64,
    pub spec_load_ms: f64,
    pub blueprint_ms: f64,
    pub discovery_ms: f64,
    pub instantiate_ms: Vec<f64>,
    pub instantiate_ticks: (u64, u64),
    pub instantiate_bytes: u64,
    pub drop_ms: Vec<f64>,
    pub trace_ms: Vec<f64>,
    pub trace_allocs: u64,
    pub advance_ms: f64,
    pub traceroute_ms: f64,
    pub paths: u64,
    pub observe_trace_ms: f64,
    pub merge_ms: f64,
    pub report_ms: f64,
    pub observations: u64,
    pub units: u64,
    pub events: u64,
    pub sim: SimCounters,
    pub validation_rounds: u64,
    /// Kept for the codec and checkpoint benches.
    pub aggregates: ShardReducers,
    pub cfg: CampaignConfig,
    pub targets: Vec<Ipv4Addr>,
    pub chunks: usize,
}

/// Run the workload's campaign traced, on this thread.
/// Returns the blueprint too, for the layer benches that need a world.
pub fn run(w: &Workload, seed: u64, tr: &mut Tracer) -> Result<(Traced, WorldBlueprint), String> {
    let mut out = Traced::default();
    let wall0 = Instant::now();
    tr.open("campaign", None);

    tr.open("pool.spec_load", None);
    let spec = load_spec(w, seed)?;
    out.spec_load_ms = tr.close();

    tr.open("lower", None);
    let (cfg, plan) = lower(&spec);
    let chunks = spec.schedule.target_chunks.max(1);
    tr.close();

    tr.open("pool.blueprint", None);
    let bp = WorldBlueprint::build(&plan, cfg.seed);
    out.blueprint_ms = tr.close();

    tr.open("core.discovery", None);
    let mut disco_world = bp.instantiate();
    let discovery = discover_in(&mut disco_world, &cfg);
    out.discovery_ms = tr.close();

    tr.open("core.schedule", None);
    let targets = discovery.targets.clone();
    let vantages = disco_world.vantages.len();
    let mut per_vantage: Vec<Vec<ScheduledTrace>> = vec![Vec::new(); vantages];
    for st in schedule(&disco_world, &cfg) {
        per_vantage[st.vantage].push(st);
    }
    tr.close();

    let mut parts: Vec<ShardReducers> = Vec::with_capacity(vantages * chunks);
    for (vantage, sched) in per_vantage.iter().enumerate() {
        for chunk in 0..chunks {
            let uid = UnitId { vantage, chunk };
            let unit = Some(uid);
            let n = targets.len();
            let chunk_targets = &targets[chunk * n / chunks..(chunk + 1) * n / chunks];
            let mut reducers = ShardReducers::default();
            tr.open("unit", unit);

            tr.open("pool.instantiate", unit);
            let (u0, s0) = thread_cpu_ticks();
            let a0 = thread_counts();
            let probed: HashSet<Ipv4Addr> = chunk_targets.iter().copied().collect();
            let mut sc = bp.instantiate_unit_scoped(vantage, chunk, &probed);
            sc.sim.install_event_tap();
            let a1 = thread_counts();
            let (u1, s1) = thread_cpu_ticks();
            out.instantiate_ms.push(tr.close());
            out.instantiate_bytes += (a1 - a0).bytes;
            out.instantiate_ticks.0 += u1 - u0;
            out.instantiate_ticks.1 += s1 - s0;

            for (trace_index, st) in sched.iter().enumerate() {
                if sc.sim.now() < st.start {
                    tr.open("netsim.advance", unit);
                    sc.sim.run_until(st.start);
                    out.advance_ms += tr.close();
                }
                tr.open("core.trace", unit);
                let a0 = thread_counts();
                let rec = run_trace_observed(
                    &mut sc,
                    vantage,
                    st.batch,
                    chunk_targets,
                    &cfg,
                    &mut (),
                    uid,
                );
                let a1 = thread_counts();
                out.trace_ms.push(tr.close());
                out.trace_allocs += (a1 - a0).allocs;
                out.validation_rounds += rec
                    .outcomes
                    .iter()
                    .filter(|o| o.validation.is_some())
                    .count() as u64;

                tr.open("core.observe_trace", unit);
                reducers.observe_trace(
                    &rec,
                    &TraceCtx {
                        first_chunk: chunk == 0,
                        vantage,
                        trace_index,
                    },
                );
                out.observe_trace_ms += tr.close();
                out.observations += rec.outcomes.len() as u64;
            }
            if cfg.run_traceroute {
                tr.open("core.traceroute", unit);
                let routes = run_traceroute_survey(&mut sc, vantage, chunk_targets, &cfg);
                out.traceroute_ms += tr.close();
                out.paths += routes.paths.len() as u64;
                tr.open("core.observe_routes", unit);
                reducers.observe_routes(
                    &routes,
                    &RouteCtx {
                        vantage,
                        asdb: &sc.asdb,
                    },
                );
                tr.close();
            }
            out.events += sc.sim.events_dispatched();
            out.sim.merge(&sc.sim.drain_event_counters());

            tr.open("pool.world_drop", unit);
            drop(sc);
            out.drop_ms.push(tr.close());
            parts.push(reducers);
            tr.close(); // unit
        }
    }
    out.units = parts.len() as u64;

    tr.open("core.merge", None);
    let aggregates = merge_tree(parts);
    out.merge_ms = tr.close();

    tr.open("core.report", None);
    let result = CampaignResult {
        targets: targets.clone(),
        discovery: DiscoveryStats::from(&discovery),
        traces: Vec::new(),
        routes: Vec::new(),
        aggregates,
        geodb: disco_world.geodb.clone(),
        asdb: disco_world.asdb.clone(),
        vantage_order: disco_world
            .vantages
            .iter()
            .map(|v| (v.spec.key.to_string(), v.spec.name.to_string()))
            .collect(),
        truth: disco_world.truth.clone(),
    };
    let report = FullReport::from_aggregates(&result).render();
    out.report_ms = tr.close();
    tr.close(); // campaign
    out.wall_ms = wall0.elapsed().as_secs_f64() * 1e3;
    out.leaf_ms = tr.leaf_ns() as f64 / 1e6;

    out.digest = crate::digest(&report);
    out.aggregates = result.aggregates;
    out.cfg = cfg;
    out.targets = targets;
    out.chunks = chunks;
    Ok((out, bp))
}
