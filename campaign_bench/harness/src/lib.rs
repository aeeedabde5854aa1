//! Shared pieces of the campaign benchmark: the workload table, spec
//! loading exactly as `ecnudp run` does it, the report digest, the
//! calibration kernel and a thread CPU-time reader.
//!
//! Two binaries use it. `campaign-bench` runs untraced campaigns with the
//! system allocator; `campaign-trace` runs the traced, single-threaded
//! campaign with a per-thread counting allocator and in-memory spans.

pub mod alloc;
pub mod layers;
pub mod traced;

use ecn_core::{campaign_config, CampaignConfig};
use ecn_pool::{PoolPlan, ScenarioSpec};
use std::time::{Duration, Instant};

/// One benchmark workload: a shipped scenario file plus how it runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Scenario file, relative to the repository root.
    pub scenario: &'static str,
    /// Population override (`None` = the file's own size).
    pub servers: Option<usize>,
    /// Run under the supervised driver: one worker process, one shard,
    /// a checkpoint file.
    pub supervised: bool,
}

/// Why each workload exists is written down in `campaign_bench/README.md`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper-full",
        scenario: "scenarios/paper2015.toml",
        servers: None,
        supervised: false,
    },
    Workload {
        name: "megapool",
        scenario: "scenarios/megapool-smoke.toml",
        // scaled down from 50k so several campaigns fit in one run; the
        // 8-chunk unit pool and the absent traceroute survey are kept
        servers: Some(10_000),
        supervised: true,
    },
    Workload {
        name: "modern-ecn",
        scenario: "scenarios/l4s-aqm.toml",
        servers: Some(1000),
        supervised: false,
    },
];

pub fn workload(name: &str) -> Result<Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .copied()
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

/// Read, parse and validate the workload's spec with the benchmark seed,
/// as `ecnudp run --scenario <file> --seed <n> [--servers <n>]` does.
pub fn load_spec(w: &Workload, seed: u64) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(w.scenario)
        .map_err(|e| format!("cannot read {}: {e}", w.scenario))?;
    let mut spec =
        ScenarioSpec::from_toml_str(&text).map_err(|e| format!("{}: {e}", w.scenario))?;
    spec.seed = seed;
    if let Some(n) = w.servers {
        spec.population.servers = n;
    }
    spec.validate()
        .map_err(|e| format!("{}: {e}", w.scenario))?;
    Ok(spec)
}

/// Lower a spec as the engine does: its campaign config, and its pool
/// plan with churn pinned to the second batch's start.
pub fn lower(spec: &ScenarioSpec) -> (CampaignConfig, PoolPlan) {
    let cfg = campaign_config(spec);
    let plan = PoolPlan {
        churn_at: cfg.batch2_start,
        ..spec.plan()
    };
    (cfg, plan)
}

/// FNV-1a 64 over the rendered report, as 16 hex digits.
pub fn digest(report: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in report.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A fixed scalar kernel (8-byte adds over a 1.5 KB buffer plus a mix
/// fed back through memory), in thousands of passes per second over
/// ~100 ms. It tracks the single-core integer speed the simulator's hot
/// loop depends on, so a slow run can be told apart from a slow host.
pub fn calibration_kops() -> f64 {
    let mut buf = [0u8; 1536];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = i as u8;
    }
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    let t0 = Instant::now();
    let mut passes = 0u64;
    while t0.elapsed() < Duration::from_millis(100) {
        for _ in 0..256 {
            let mut s = 0u64;
            for ch in buf.chunks_exact(8) {
                s = s.wrapping_add(u64::from_le_bytes(ch.try_into().expect("8-byte chunk")));
            }
            acc ^= s.rotate_left(17).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let off = (acc as usize) % (buf.len() - 8);
            buf[off..off + 8].copy_from_slice(&acc.to_le_bytes());
            passes += 1;
        }
    }
    std::hint::black_box(acc);
    passes as f64 / t0.elapsed().as_secs_f64() / 1e3
}

/// This thread's (user, system) CPU time in clock ticks, from
/// `/proc/thread-self/stat`; (0, 0) where procfs is unavailable.
pub fn thread_cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return (0, 0);
    };
    // fields after the parenthesised command name start at field 3
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse().ok()).unwrap_or(0);
    (tick(11), tick(12))
}

/// A flat JSON object writer for the one-line results the harness prints.
#[derive(Default)]
pub struct JsonLine(String);

impl JsonLine {
    pub fn num(mut self, key: &str, v: f64) -> Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.push(key, &format!("{v:?}"));
        self
    }

    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.push(key, &v.to_string());
        self
    }

    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.push(key, &format!("\"{v}\""));
        self
    }

    fn push(&mut self, key: &str, raw: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        self.0.push_str(&format!("\"{key}\":{raw}"));
    }

    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// `--key value` lookup over the process arguments.
pub fn arg(args: &[String], key: &str) -> Result<String, String> {
    args.windows(2)
        .find(|p| p[0] == key)
        .map(|p| p[1].clone())
        .ok_or_else(|| format!("missing {key} <value>"))
}
