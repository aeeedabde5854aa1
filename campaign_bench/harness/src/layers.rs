//! Layer benches the traced run adds after its campaign: per-kind probe
//! cost, LPM lookup on a world-sized table, wire codecs and checksums,
//! and the worker-payload and checkpoint codecs on the campaign's own
//! aggregates. None of them touches the traced campaign's worlds, so the
//! report digest cannot depend on them.

use crate::traced::Traced;
use ecn_core::mp::{Checkpoint, WorkerCounters, WorkerPayload, CHECKPOINT_VERSION};
use ecn_core::probes::probe_validation;
use ecn_core::{probe_tcp, probe_udp, read_checkpoint, CampaignConfig, EngineTiming};
use ecn_netsim::{Ipv4Prefix, NodeId, PrefixMap};
use ecn_pool::WorldBlueprint;
use ecn_wire::{internet_checksum, Ecn, NtpPacket, NtpTimestamp, UdpHeader};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

/// ns per call of `f`: the median of five timed batches, each sized from
/// a warm-up to take about 20 ms. `f` gets the call index.
fn ns_per_call(mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..1024 {
        f(i);
    }
    let warm_ns = t0.elapsed().as_nanos().max(1) as f64 / 1024.0;
    let iters = ((20e6 / warm_ns) as u64).max(1024);
    let mut v: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median wall time of `reps` calls, in ms.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(v);
    }
    times.sort_by(f64::total_cmp);
    (times[reps / 2], last.expect("reps >= 1"))
}

/// Targets the per-kind sweep probes.
const SWEEP_TARGETS: usize = 400;

/// Per-kind probe cost in µs per call: `[udp_plain, udp_ect, tcp_plain,
/// tcp_ecn]`, plus µs per validation round (0 when validation is off).
///
/// The engine's `ProbeSent` events for a server's four probes are
/// emitted back to back before any probe runs, so their spacing gives
/// per-server, not per-kind, time. This sweep calls `probe_udp` and
/// `probe_tcp` directly instead, in the campaign's per-server order, in
/// a fresh world scoped to the first targets of vantage 0's first chunk.
pub fn probe_sweep(
    bp: &WorldBlueprint,
    targets: &[Ipv4Addr],
    chunks: usize,
    cfg: &CampaignConfig,
) -> ([f64; 4], f64) {
    let chunk0 = &targets[..targets.len() / chunks];
    let swept = &chunk0[..chunk0.len().min(SWEEP_TARGETS)];
    if swept.is_empty() {
        return ([0.0; 4], 0.0);
    }
    let probed: HashSet<Ipv4Addr> = swept.iter().copied().collect();
    let mut sc = bp.instantiate_unit_scoped(0, 0, &probed);
    let handle = sc.vantages[0].handle.clone();
    let capture = sc.sim.attach_capture(sc.vantages[0].node);
    let mut ns = [0u128; 4];
    let mut validation_ns = 0u128;
    for &server in swept {
        capture.lock().clear();
        let t = Instant::now();
        let plain = probe_udp(
            &mut sc.sim,
            &handle,
            &capture,
            server,
            Ecn::NotEct,
            &cfg.probe,
        );
        ns[0] += t.elapsed().as_nanos();
        let t = Instant::now();
        let ect = cfg.probe.ect_codepoint;
        black_box(probe_udp(
            &mut sc.sim,
            &handle,
            &capture,
            server,
            ect,
            &cfg.probe,
        ));
        ns[1] += t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(probe_tcp(
            &mut sc.sim,
            &handle,
            &capture,
            server,
            false,
            &cfg.probe,
        ));
        ns[2] += t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(probe_tcp(
            &mut sc.sim,
            &handle,
            &capture,
            server,
            true,
            &cfg.probe,
        ));
        ns[3] += t.elapsed().as_nanos();
        if cfg.validation.enabled() {
            let t = Instant::now();
            black_box(probe_validation(
                &mut sc.sim,
                &handle,
                server,
                Ecn::Ect0,
                plain.reachable,
                &cfg.validation,
            ));
            validation_ns += t.elapsed().as_nanos();
        }
    }
    let n = swept.len() as f64;
    (
        ns.map(|v| v as f64 / n / 1e3),
        validation_ns as f64 / n / 1e3,
    )
}

/// ns per longest-prefix-match lookup on a table with one host route per
/// node of the blueprint's world plus a default route, probed with the
/// nodes' own addresses in a seeded order.
pub fn lpm_lookup_ns(bp: &WorldBlueprint, seed: u64) -> f64 {
    let world = bp.instantiate();
    let mut map: PrefixMap<u32> = PrefixMap::new();
    let mut addrs: Vec<Ipv4Addr> = Vec::with_capacity(world.sim.node_count());
    for i in 0..world.sim.node_count() {
        let addr = world.sim.addr_of(NodeId(i as u32));
        map.insert(Ipv4Prefix::host(addr), i as u32);
        addrs.push(addr);
    }
    map.insert(Ipv4Prefix::new(Ipv4Addr::UNSPECIFIED, 0), u32::MAX);
    drop(world);
    // xorshift64* picks; a fixed 4096-entry probe ring keeps the loop
    // free of RNG cost while still visiting the table out of order
    let mut x = seed | 1;
    let ring: Vec<Ipv4Addr> = (0..4096)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            addrs[(x.wrapping_mul(0x2545_f491_4f6c_dd1d) % addrs.len() as u64) as usize]
        })
        .collect();
    let mut acc = 0u32;
    let ns = ns_per_call(|i| {
        acc ^= *map
            .lookup(black_box(ring[(i & 4095) as usize]))
            .unwrap_or(&0);
    });
    black_box(acc);
    ns
}

/// ns per `internet_checksum` over `len` bytes.
pub fn checksum_ns(len: usize) -> f64 {
    let buf = vec![0xabu8; len];
    let mut acc = 0u16;
    let ns = ns_per_call(|_| acc ^= internet_checksum(black_box(&buf)));
    black_box(acc);
    ns
}

/// ns per NTP client request encoded into a checksummed UDP segment and
/// decoded back (checksum verified): the smallest packet the campaign
/// sends.
pub fn ntp_udp_roundtrip_ns() -> f64 {
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(192, 0, 2, 1);
    let req = NtpPacket::client_request(NtpTimestamp::from_nanos(1_000_000_007));
    let udp = UdpHeader {
        src_port: 40_000,
        dst_port: 123,
        length: 0,
    };
    let mut payload = Vec::with_capacity(64);
    let mut segment = Vec::with_capacity(64);
    ns_per_call(|_| {
        payload.clear();
        black_box(&req).encode_into(&mut payload);
        segment.clear();
        udp.encode(src, dst, &payload, &mut segment);
        let (_, body) = UdpHeader::decode(src, dst, black_box(&segment)).expect("own segment");
        black_box(NtpPacket::decode(body).expect("own NTP packet"));
    })
}

/// The `mp` codec and checkpoint costs on the campaign's own aggregates.
pub struct MpCodec {
    pub payload_mb: f64,
    pub payload_encode_ms: f64,
    pub payload_decode_ms: f64,
    pub checkpoint_mb: f64,
    pub checkpoint_write_ms: f64,
    pub checkpoint_read_ms: f64,
}

/// Time the worker-payload JSON codec and a checkpoint write (serialize,
/// temp file, rename — the supervisor's atomic write) and
/// `read_checkpoint`, each the median of three.
pub fn mp_codec(t: &Traced, work: &Path) -> Result<MpCodec, String> {
    let counters = WorkerCounters {
        observations: t.observations,
        delivered: t.sim.delivered,
        dropped: t
            .sim
            .dropped
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        ce_marked: t.sim.ce_marked,
        ecn_rewritten: t
            .sim
            .ecn_rewritten
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
    };
    let payload = WorkerPayload {
        aggregates: t.aggregates.clone(),
        units: t.units as usize,
        shards: 1,
        timing: EngineTiming::default(),
        peak_resident_traces: 0,
        peak_rss_kb: 0,
        counters,
    };
    let (encode_ms, json) = median_ms(3, || serde_json::to_string(&payload));
    let json = json.map_err(|e| format!("encode payload: {e:?}"))?;
    let (decode_ms, back) = median_ms(3, || serde_json::from_str::<WorkerPayload>(&json));
    let back = back.map_err(|e| format!("decode payload: {e:?}"))?;
    if back.aggregates != t.aggregates {
        return Err("worker payload did not round-trip".into());
    }

    let ck = Checkpoint {
        version: CHECKPOINT_VERSION,
        fingerprint: 0,
        unit_count: t.units as usize,
        completed: (0..t.units as usize).collect(),
        aggregates: t.aggregates.clone(),
    };
    let path = work.join("checkpoint.json");
    let tmp = work.join(".checkpoint.json.tmp");
    let (write_ms, bytes) = median_ms(3, || -> Result<usize, String> {
        let json = serde_json::to_string(&ck).map_err(|e| format!("encode checkpoint: {e:?}"))?;
        std::fs::write(&tmp, json.as_bytes()).map_err(|e| format!("write checkpoint: {e}"))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename checkpoint: {e}"))?;
        Ok(json.len())
    });
    let bytes = bytes?;
    let (read_ms, read) = median_ms(3, || read_checkpoint(&path));
    let read = read.map_err(|e| e.to_string())?;
    if read.aggregates != t.aggregates {
        return Err("checkpoint did not round-trip".into());
    }
    let _ = std::fs::remove_file(&path);
    Ok(MpCodec {
        payload_mb: json.len() as f64 / 1e6,
        payload_encode_ms: encode_ms,
        payload_decode_ms: decode_ms,
        checkpoint_mb: bytes as f64 / 1e6,
        checkpoint_write_ms: write_ms,
        checkpoint_read_ms: read_ms,
    })
}
