//! Probe hot-loop bench: throughput and allocation discipline of the
//! (instantiate → probe → reduce) inner loop on a single shard.
//!
//! Reports, per `BENCH_campaign.json` section `probe_hot_loop`:
//! - `observations_per_sec` — (server, trace) observations absorbed per
//!   wall second, single shard (so scheduler parallelism can't flatter
//!   the inner loop);
//! - `instantiate_ms_per_unit` — what stamping one unit world from the
//!   blueprint skeleton costs;
//! - `allocations_per_observation` — only when built with
//!   `--features alloc-count`, which installs the counting global
//!   allocator (left out of default runs so the gauge can't perturb the
//!   wall-clock numbers).
//!
//! The measured run also re-executes through the observed entry point
//! with the no-op subscriber (`Subscriber = ()`): `S::ENABLED = false`
//! const-folds every event hook away, so the two walls must match.
//! `ECNUDP_BENCH_ENFORCE=1` fails the run if the no-op-subscriber
//! overhead exceeds 10% (allocation *equality* is pinned separately in
//! `tests/alloc_regression.rs`).
//!
//! A second section, `flat_event_loop`, tracks the batched flat event
//! loop (timer wheel + dense-index state + tunnelled forwarding) against
//! the PR-4 heap-based loop: before/after observations/sec,
//! ns/packet-event (wall over `Sim::events_dispatched`), events and
//! allocations per observation. Because CI runners differ, the
//! comparison is *hardware-normalised*: a fixed scalar calibration
//! kernel is timed alongside the campaign, the PR-4 baseline is scaled
//! by the ratio of calibration scores, and `ECNUDP_BENCH_ENFORCE=1`
//! fails the run if the new loop delivers less than 1.8x the normalised
//! baseline.
//!
//! Scale knobs (env): `ECNUDP_BENCH_SERVERS` (default 150),
//! `ECNUDP_BENCH_TRACES` (per vantage, default 2).

use ecn_bench::BENCH_SEED;
use ecn_core::{
    run_discovery, run_engine, run_engine_observed, run_trace, CampaignConfig, EngineConfig,
};
use ecn_pool::PoolPlan;
use std::time::{Duration, Instant};

/// PR-4 `probe_hot_loop` baseline: the committed BENCH_campaign.json
/// figures before the flat event loop landed, re-anchored with the
/// calibration kernel on the host that recorded them.
const PR4_OBS_PER_SEC: f64 = 19_424.0;
/// ns/packet-event the PR-4 loop measured at this scale (the "~140 ns
/// floor" the flat event loop was built to break).
const PR4_NS_PER_EVENT: f64 = 140.0;
/// Probe-loop allocations/observation before the batch paths landed.
const PR4_ALLOCS_PER_OBS: f64 = 80.0;
/// Dispatched events/observation under the PR-4 loop: every hop of every
/// packet was its own heap pop (the tunnelling fast path collapses
/// transparent multi-hop chains into one arrival).
const PR4_EVENTS_PER_OBS: f64 = 285.0;
/// Calibration-kernel score (kilo-iterations/sec) on the baseline host —
/// the container that recorded the 19,424 obs/s PR-4 figure (stable to
/// ~1% across repeated runs there).
const PR4_CALIBRATION_KOPS: f64 = 34_100.0;
/// The enforced floor: normalised speedup vs the PR-4 baseline.
const ENFORCE_MIN_RATIO: f64 = 1.8;

/// A fixed scalar kernel (checksum-shaped: 8-byte adds over a 1.5 KB
/// buffer plus an avalanche mix) timed for ~80 ms. Scores scale with the
/// single-core integer throughput the simulator's hot loop depends on,
/// giving a unit-free knob to transport the PR-4 baseline across hosts.
fn calibration_kops() -> f64 {
    let mut buf = [0u8; 1536];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = i as u8;
    }
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    let t0 = Instant::now();
    let mut iters = 0u64;
    loop {
        for _ in 0..256 {
            let mut s = 0u64;
            for ch in buf.chunks_exact(8) {
                s = s.wrapping_add(u64::from_le_bytes(ch.try_into().unwrap()));
            }
            acc ^= s.rotate_left(17).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            // Feed the digest back into the buffer: the next pass depends
            // on this one through memory, so the sum cannot be folded to
            // a constant and the loop actually exercises load/ALU ports.
            let off = (acc as usize) % (buf.len() - 8);
            buf[off..off + 8].copy_from_slice(&acc.to_le_bytes());
            iters += 1;
        }
        if t0.elapsed() >= Duration::from_millis(80) {
            break;
        }
    }
    std::hint::black_box(acc);
    iters as f64 / t0.elapsed().as_secs_f64() / 1000.0
}

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: ecn_bench::alloc::CountingAlloc = ecn_bench::alloc::CountingAlloc;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let servers = env_usize("ECNUDP_BENCH_SERVERS", 150);
    let traces_per_vantage = env_usize("ECNUDP_BENCH_TRACES", 2);
    let plan = PoolPlan::scaled(servers);
    let cfg = CampaignConfig {
        discovery_rounds: 40,
        traces_per_vantage: Some(traces_per_vantage),
        run_traceroute: false,
        ..CampaignConfig::quick(BENCH_SEED)
    };
    let eng = EngineConfig::with_shards(1);

    println!(
        "[probe_hot_loop] {servers} servers, {traces_per_vantage} traces/vantage, 1 shard{}",
        if cfg!(feature = "alloc-count") {
            ", counting allocations"
        } else {
            ""
        }
    );

    // Warm-up: fault in code paths and allocator arenas.
    std::hint::black_box(run_engine(&plan, &cfg, &eng));

    let t0 = Instant::now();
    // process-wide: the engine runs its shard on a thread of its own
    let allocs0 = ecn_bench::alloc::allocation_count();
    let run = run_engine(&plan, &cfg, &eng);
    let allocs = ecn_bench::alloc::allocation_count() - allocs0;
    let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let logical_traces = run.result.aggregates.trace_stats.len();
    let observations = logical_traces * run.result.targets.len();
    let obs_per_sec = observations as f64 / (wall_ms / 1000.0);
    let inst_ms_per_unit = run.timing.instantiate.as_secs_f64() * 1000.0 / run.units.max(1) as f64;

    println!(
        "[probe_hot_loop] {observations} observations in {wall_ms:.0} ms -> {obs_per_sec:.0} obs/s ({})",
        run.timing.render()
    );
    println!(
        "[probe_hot_loop] instantiate: {inst_ms_per_unit:.3} ms/unit over {} units",
        run.units
    );

    // Identical work through the observed entry point, no-op subscriber:
    // the zero-cost contract says this wall must match the plain one.
    let t1 = Instant::now();
    let (observed_run, ()) = run_engine_observed(&plan, &cfg, &eng, ());
    let observed_ms = t1.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(
        run.result.aggregates, observed_run.result.aggregates,
        "Subscriber = () changed the measurement"
    );
    let noop_overhead_pct = (observed_ms / wall_ms - 1.0) * 100.0;
    println!(
        "[probe_hot_loop] no-op subscriber: {observed_ms:.0} ms observed vs {wall_ms:.0} ms plain \
         -> {noop_overhead_pct:+.1}% overhead"
    );

    let mut json = format!(
        "{{\n  \"servers\": {servers},\n  \"traces_per_vantage\": {traces_per_vantage},\n  \"observations\": {observations},\n  \"wall_ms\": {wall_ms:.1},\n  \"observations_per_sec\": {obs_per_sec:.0},\n  \"instantiate_ms_per_unit\": {inst_ms_per_unit:.3},\n  \"noop_subscriber_overhead_pct\": {noop_overhead_pct:.1},\n  \"alloc_counting\": {}",
        cfg!(feature = "alloc-count"),
    );
    if cfg!(feature = "alloc-count") {
        let per_obs = allocs as f64 / observations.max(1) as f64;
        println!(
            "[probe_hot_loop] {allocs} allocations for {observations} observations -> {per_obs:.2} allocs/observation"
        );
        json.push_str(&format!(
            ",\n  \"allocations\": {allocs},\n  \"allocations_per_observation\": {per_obs:.2}"
        ));
    }
    json.push_str("\n}");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    ecn_bench::update_bench_json(&out, "probe_hot_loop", &json);
    println!("[probe_hot_loop] hot-loop table -> BENCH_campaign.json");

    // ---- flat_event_loop: before/after against the PR-4 heap loop ----

    // ns/packet-event measured directly: one warm trace, then a timed
    // trace divided by the simulator's own dispatch counter.
    let (d, mut sc) = run_discovery(&plan, &cfg);
    let _ = run_trace(&mut sc, 0, 1, &d.targets, &cfg);
    let e0 = sc.sim.events_dispatched();
    let t2 = Instant::now();
    let rec = run_trace(&mut sc, 0, 2, &d.targets, &cfg);
    let trace_ns = t2.elapsed().as_nanos() as f64;
    let events = sc.sim.events_dispatched() - e0;
    let trace_obs = rec.outcomes.len() as u64;
    let ns_per_event = trace_ns / events.max(1) as f64;
    let events_per_obs = events as f64 / trace_obs.max(1) as f64;

    // The plain and observed runs above are the identical workload, so
    // the faster of the two is a free best-of-2 against scheduler noise.
    let best_obs_per_sec = observations as f64 / (wall_ms.min(observed_ms) / 1000.0);

    // Calibrate twice (bracketing the campaign timings above) and keep
    // the better score — same best-of-N defence the obs/s figure gets.
    let calib = calibration_kops().max(calibration_kops());
    let normalised_baseline = PR4_OBS_PER_SEC * (calib / PR4_CALIBRATION_KOPS);
    let speedup = best_obs_per_sec / normalised_baseline;

    println!(
        "[flat_event_loop] {events} events / {trace_obs} obs -> {events_per_obs:.1} events/obs, \
         {ns_per_event:.1} ns/packet-event"
    );
    println!(
        "[flat_event_loop] calibration {calib:.0} kops (baseline host {PR4_CALIBRATION_KOPS:.0}) \
         -> normalised PR-4 baseline {normalised_baseline:.0} obs/s; this loop {best_obs_per_sec:.0} \
         obs/s = {speedup:.2}x"
    );

    let mut flat = format!(
        "{{\n  \"before\": {{\n    \"observations_per_sec\": {PR4_OBS_PER_SEC:.0},\n    \"ns_per_packet_event\": {PR4_NS_PER_EVENT:.0},\n    \"events_per_observation\": {PR4_EVENTS_PER_OBS:.0},\n    \"allocations_per_observation\": {PR4_ALLOCS_PER_OBS:.0},\n    \"calibration_kops\": {PR4_CALIBRATION_KOPS:.0}\n  }},\n  \"after\": {{\n    \"observations_per_sec\": {best_obs_per_sec:.0},\n    \"ns_per_packet_event\": {ns_per_event:.1},\n    \"events_per_observation\": {events_per_obs:.1},\n    \"calibration_kops\": {calib:.0}"
    );
    if cfg!(feature = "alloc-count") {
        flat.push_str(&format!(
            ",\n    \"allocations_per_observation\": {:.2}",
            allocs as f64 / observations.max(1) as f64
        ));
    }
    flat.push_str(&format!(
        "\n  }},\n  \"normalised_speedup\": {speedup:.2},\n  \"enforced_min_speedup\": {ENFORCE_MIN_RATIO}\n}}"
    ));
    ecn_bench::update_bench_json(&out, "flat_event_loop", &flat);
    println!("[flat_event_loop] before/after table -> BENCH_campaign.json");

    if std::env::var("ECNUDP_BENCH_ENFORCE").as_deref() == Ok("1") {
        if noop_overhead_pct > 10.0 {
            eprintln!(
                "[probe_hot_loop] FAIL: no-op subscriber cost {noop_overhead_pct:.1}% \
                 (the event hooks must compile away; budget 10% covers runner jitter)"
            );
            std::process::exit(1);
        }
        if speedup < ENFORCE_MIN_RATIO {
            eprintln!(
                "[flat_event_loop] FAIL: {best_obs_per_sec:.0} obs/s is {speedup:.2}x the \
                 hardware-normalised PR-4 baseline ({normalised_baseline:.0} obs/s); the flat \
                 event loop must hold >= {ENFORCE_MIN_RATIO}x"
            );
            std::process::exit(1);
        }
    }
}
