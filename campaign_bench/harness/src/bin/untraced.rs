//! `campaign-bench` — untraced campaign runs for `campaign_bench/run.py`.
//! Each invocation does one thing and prints one JSON line on stdout:
//!
//! ```text
//! campaign-bench campaign --workload W --seed N --work DIR [--in-process]
//! campaign-bench setup    --workload W --seed N
//! campaign-bench digest   --workload W --seed N
//! campaign-bench calibrate
//! ```
//!
//! `campaign` runs one campaign on one engine shard, exactly as
//! `ecnudp run --shards 1` would (supervised workloads also get
//! `--checkpoint DIR/checkpoint.json`), and reports its wall time,
//! set-up time (spec load, lowering, blueprint build and discovery),
//! observation count and report digest. `setup` runs only that set-up,
//! the engine's own calls in the engine's order, as the first thing a
//! fresh process does, exactly as `campaign` does before it probes.
//! `digest` renders the report on two in-process shards, for pinning.

use campaign_bench::{arg, calibration_kops, digest, load_spec, lower, workload, JsonLine};
use ecn_core::{
    campaign_config, discover_in, engine_config, try_run_engine, try_run_engine_observed,
    EngineRun, Event, FullReport, Subscriber,
};
use ecn_pool::WorldBlueprint;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Counts supervisor-side worker failures (each one is retried or ends
/// the campaign).
#[derive(Default)]
struct Retries(u64);

impl Subscriber for Retries {
    fn fork(&self) -> Self {
        Retries::default()
    }

    fn on_event(&mut self, event: &Event<'_>) {
        if let Event::WorkerFailed { .. } = event {
            self.0 += 1;
        }
    }

    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

fn campaign(args: &[String]) -> Result<String, String> {
    let w = workload(&arg(args, "--workload")?)?;
    let seed: u64 = arg(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let work = arg(args, "--work")?;
    let in_process = args.iter().any(|a| a == "--in-process");

    let t0 = Instant::now();
    let spec = load_spec(&w, seed)?;
    let plan = spec.plan();
    let cfg = campaign_config(&spec);
    let mut eng = engine_config(&spec);
    eng.shards = Some(1);
    if w.supervised && !in_process {
        eng.checkpoint = Some(Path::new(&work).join("checkpoint.json"));
    }
    let lowered = t0.elapsed();
    let (run, retries): (EngineRun, u64) = if eng.supervised() {
        let (run, r) = try_run_engine_observed(&plan, &cfg, &eng, Retries::default())
            .map_err(|e| format!("campaign failed: {e}"))?;
        (run, r.0)
    } else {
        (
            try_run_engine(&plan, &cfg, &eng).map_err(|e| format!("campaign failed: {e}"))?,
            0,
        )
    };
    let report = FullReport::from_campaign(&run.result).render();
    let wall = t0.elapsed();

    let t = &run.timing;
    let traces = run.result.aggregates.trace_stats.len() as u64;
    let targets = run.result.targets.len() as u64;
    Ok(JsonLine::default()
        .str("digest", &digest(&report))
        .num("wall_s", wall.as_secs_f64())
        .num(
            "setup_s",
            (lowered + t.blueprint_build + t.discovery).as_secs_f64(),
        )
        .int("observations", traces * targets)
        .int("traces", traces)
        .int("targets", targets)
        .int("units", run.units as u64)
        .int("supervised", eng.supervised() as u64)
        .int("processes", run.processes as u64)
        .int("shards", run.shards as u64)
        .int("retries", retries)
        .num("engine_wall_s", t.wall.as_secs_f64())
        .num("blueprint_s", t.blueprint_build.as_secs_f64())
        .num("discovery_s", t.discovery.as_secs_f64())
        .num("instantiate_s", t.instantiate.as_secs_f64())
        .num("probe_s", t.probe.as_secs_f64())
        .num("reduce_s", t.reduce.as_secs_f64())
        .int("peak_rss_kb", run.peak_rss_kb)
        .finish())
}

fn setup(args: &[String]) -> Result<String, String> {
    let w = workload(&arg(args, "--workload")?)?;
    let seed: u64 = arg(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let t0 = Instant::now();
    let (cfg, plan) = lower(&load_spec(&w, seed)?);
    let bp = WorldBlueprint::build(&plan, cfg.seed);
    let mut world = bp.instantiate();
    let targets = discover_in(&mut world, &cfg).targets.len();
    let setup = t0.elapsed();
    Ok(JsonLine::default()
        .num("setup_s", setup.as_secs_f64())
        .int("targets", targets as u64)
        .finish())
}

fn pin_digest(args: &[String]) -> Result<String, String> {
    let w = workload(&arg(args, "--workload")?)?;
    let seed: u64 = arg(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let spec = load_spec(&w, seed)?;
    let mut eng = engine_config(&spec);
    eng.shards = Some(2);
    let run = try_run_engine(&spec.plan(), &campaign_config(&spec), &eng)
        .map_err(|e| format!("campaign failed: {e}"))?;
    let report = FullReport::from_campaign(&run.result).render();
    Ok(JsonLine::default().str("digest", &digest(&report)).finish())
}

fn main() -> ExitCode {
    // supervised campaigns re-execute this binary as their worker
    if let Some(code) = ecn_core::maybe_worker() {
        return code;
    }
    let args: Vec<String> = std::env::args().collect();
    let result = match args.get(1).map(String::as_str) {
        Some("campaign") => campaign(&args),
        Some("setup") => setup(&args),
        Some("digest") => pin_digest(&args),
        Some("calibrate") => Ok(JsonLine::default()
            .num("calibration_kops", calibration_kops())
            .finish()),
        _ => Err("usage: campaign-bench campaign|setup|digest|calibrate ...".into()),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            ExitCode::from(3)
        }
    }
}
