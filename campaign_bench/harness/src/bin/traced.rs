//! `campaign-trace` — the traced, single-threaded campaign and the layer
//! benches, for `campaign_bench/run.py --trace 1`:
//!
//! ```text
//! campaign-trace --workload W --seed N --work DIR
//! ```
//!
//! Writes the spans to `DIR/spans.jsonl` and prints one JSON line: the
//! report digest, the traced wall time, and every per-layer metric this
//! process can measure on its own (`run.py` adds the ones that need an
//! untraced run to compare against).

use campaign_bench::alloc::CountingAlloc;
use campaign_bench::traced::{self, Tracer};
use campaign_bench::{arg, layers, load_spec, lower, workload, JsonLine, WORKLOADS};
use ecn_pool::WorldBlueprint;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Nearest-rank percentile of unsorted samples.
fn pct(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The blueprint of another workload's world, for its LPM table size.
fn blueprint_of(name: &str, seed: u64) -> Result<WorldBlueprint, String> {
    let w = workload(name)?;
    let (cfg, plan) = lower(&load_spec(&w, seed)?);
    Ok(WorldBlueprint::build(&plan, cfg.seed))
}

fn run(args: &[String]) -> Result<String, String> {
    let w = workload(&arg(args, "--workload")?)?;
    let seed: u64 = arg(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let work = arg(args, "--work")?;
    let work = Path::new(&work);

    let mut tracer = Tracer::new();
    let (t, bp) = traced::run(&w, seed, &mut tracer)?;
    tracer
        .write_jsonl(&work.join("spans.jsonl"))
        .map_err(|e| format!("write spans: {e}"))?;

    let (probe_us, validation_us) = layers::probe_sweep(&bp, &t.targets, t.chunks, &t.cfg);
    let mut lpm = Vec::new();
    for other in [WORKLOADS[0].name, WORKLOADS[1].name] {
        let ns = if other == w.name {
            layers::lpm_lookup_ns(&bp, seed)
        } else {
            layers::lpm_lookup_ns(&blueprint_of(other, seed)?, seed)
        };
        lpm.push(ns);
    }
    drop(bp);
    let mp = layers::mp_codec(&t, work)?;

    let obs = t.observations;
    let calls = t.trace_ms.len() as u64;
    let trace_total: f64 = t.trace_ms.iter().sum();
    let probe_phase_ms = trace_total + t.traceroute_ms + t.advance_ms;
    let (user, sys) = t.instantiate_ticks;
    Ok(JsonLine::default()
        .str("digest", &t.digest)
        .num("wall_ms", t.wall_ms)
        .int("observations", obs)
        .int("units", t.units)
        .int("events", t.events)
        .int("spans", tracer.spans.len() as u64)
        .num("pool.spec_load_ms", t.spec_load_ms)
        .num("pool.blueprint_ms", t.blueprint_ms)
        .num("pool.instantiate_ms.p50", pct(&t.instantiate_ms, 50.0))
        .num("pool.instantiate_ms.p90", pct(&t.instantiate_ms, 90.0))
        .num(
            "pool.instantiate_sys_pct",
            per(100.0 * sys as f64, user + sys),
        )
        .num(
            "pool.instantiate_alloc_mb",
            per(t.instantiate_bytes as f64 / 1e6, t.units),
        )
        .num(
            "pool.world_drop_ms",
            per(t.drop_ms.iter().sum::<f64>(), t.units),
        )
        .num("core.discovery_ms", t.discovery_ms)
        .num("core.trace_ms.p50", pct(&t.trace_ms, 50.0))
        .num("core.trace_ms.p95", pct(&t.trace_ms, 95.0))
        .num("core.probe_us_per_obs", per(trace_total * 1e3, obs))
        .num("core.probe_us.udp_plain", probe_us[0])
        .num("core.probe_us.udp_ect", probe_us[1])
        .num("core.probe_us.tcp_plain", probe_us[2])
        .num("core.probe_us.tcp_ecn", probe_us[3])
        .num("core.allocs_per_obs", per(t.trace_allocs as f64, obs))
        .num("core.traceroute_ms", t.traceroute_ms)
        .num(
            "core.traceroute_us_per_path",
            per(t.traceroute_ms * 1e3, t.paths),
        )
        .num(
            "core.reduce_us_per_trace",
            per(t.observe_trace_ms * 1e3, calls),
        )
        .num("core.merge_ms", t.merge_ms)
        .num("core.report_ms", t.report_ms)
        .num("netsim.events_per_obs", per(t.events as f64, obs))
        .num("netsim.ns_per_event", per(probe_phase_ms * 1e6, t.events))
        .num("netsim.delivered_per_obs", per(t.sim.delivered as f64, obs))
        .num(
            "netsim.dropped_per_obs",
            per(t.sim.total_dropped() as f64, obs),
        )
        .num("netsim.ce_marked_per_obs", per(t.sim.ce_marked as f64, obs))
        .num("netsim.lpm_lookup_ns.paper", lpm[0])
        .num("netsim.lpm_lookup_ns.megapool", lpm[1])
        .num("stack.validation_rounds", t.validation_rounds as f64)
        .num("stack.validation_us_per_round", validation_us)
        .num("wire.checksum_ns.48B", layers::checksum_ns(48))
        .num("wire.checksum_ns.1500B", layers::checksum_ns(1500))
        .num("wire.ntp_udp_roundtrip_ns", layers::ntp_udp_roundtrip_ns())
        .num("mp.payload_mb", mp.payload_mb)
        .num("mp.payload_encode_ms", mp.payload_encode_ms)
        .num("mp.payload_decode_ms", mp.payload_decode_ms)
        .num("mp.checkpoint_mb", mp.checkpoint_mb)
        .num("mp.checkpoint_write_ms", mp.checkpoint_write_ms)
        .num("mp.checkpoint_read_ms", mp.checkpoint_read_ms)
        .num(
            "bench.unattributed_pct",
            100.0 * (t.wall_ms - t.leaf_ms).max(0.0) / t.wall_ms,
        )
        .finish())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign-trace: {e}");
            ExitCode::from(3)
        }
    }
}
