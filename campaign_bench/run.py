#!/usr/bin/env python3
"""Campaign benchmark for ecnudp: how long a campaign takes to produce its
report, and what it costs in CPU and memory, on one engine shard.

Run from the repository root:

    python3 campaign_bench/run.py --workload paper-full --seed 3 --seconds 30 --trace 0
    python3 campaign_bench/run.py --workload megapool --seed 3 --seconds 30 --trace 1
    python3 campaign_bench/run.py --steadiness 5 --workload megapool --seconds 30
    python3 campaign_bench/run.py --pin-digests 0-63

`--trace 0` runs untraced campaigns, one process each, closed loop, until
`--seconds` have passed and at least MIN_CAMPAIGNS have run, with
set-up-only processes between them and after them until the run has
SETUP_SAMPLES set-ups (the campaigns' own included), and prints the end-to-end metrics as medians over the campaigns (set-up: over
every set-up of the run).
`--trace 1` runs the traced campaign twice (its exact counts must repeat)
plus the untraced references it is compared against, and prints the
per-layer metrics. The last stdout line is always one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

Every campaign's rendered report is hashed; the digest must equal the one
pinned in `digests.json` for the workload and seed (and, for a seed with
no pin, agree across every campaign of the run). A mismatch, a non-zero
exit, a typed campaign error or any worker retry fails the campaign; a
failed campaign contributes no number. See README.md next to this file.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("paper-full", "megapool", "modern-ecn")
# every run has at least this many campaigns, however long they take, so
# each median is over several of them
MIN_CAMPAIGNS = 3
# setup_s is the median of at least this many cold set-ups per run: each
# campaign's own, plus set-up-only processes (the same calls, also the
# first thing a fresh process does), SETUP_BETWEEN after each campaign so
# that the samples spread over the run like the campaigns, then as many as
# still fall short
SETUP_SAMPLES = 21
SETUP_BETWEEN = 4
# a run (after the build) must end within this many seconds, hung
# processes included
RUN_BUDGET_S = 165
# counts the traced run must repeat exactly
EXACT = (
    "core.allocs_per_obs",
    "netsim.events_per_obs",
    "netsim.ce_marked_per_obs",
    "netsim.delivered_per_obs",
    "netsim.dropped_per_obs",
    "pool.instantiate_alloc_mb",
    "stack.validation_rounds",
)


class Failed(Exception):
    """One campaign (or set-up run) that must not contribute a number."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the harness from source; returns the directory of its binaries."""
    for need in ("Cargo.toml", "crates", "scenarios"):
        if not os.path.exists(need):
            sys.exit(f"campaign_bench: run from the repository root ({need} not found)")
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"campaign_bench: harness build failed ({r.returncode})")
    return os.path.join(target, "release")


# when set, run_proc kills whatever is still running then
deadline = None


def stop_group(pid):
    """Kill whatever is left of process group `pid` and wait until it is gone."""
    for _ in range(1000):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_proc(argv):
    """Run one harness process; returns (parsed stdout line, rusage).

    CPU time and peak RSS come from wait4: the process's own usage plus
    that of every child it reaped, so supervised workers are included.
    """
    limit = None if deadline is None else deadline - time.monotonic()
    if limit is not None and limit <= 0:
        raise Failed("out of run time")
    # its own process group, so a kill also reaches supervised workers
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    timer = threading.Timer(limit, stop_group, (p.pid,)) if limit else None
    if timer:
        timer.start()
    try:
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        if timer:
            timer.cancel()
        p.stdout.close()
        stop_group(p.pid)
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        raise Failed(f"{os.path.basename(argv[0])} {argv[1]} exited {p.returncode}")
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), ru
    except (IndexError, ValueError) as e:
        raise Failed(f"unreadable harness output: {e}")


class DigestGate:
    """Report-correctness gate: pinned digest, else agreement within the run."""

    def __init__(self, workload, seed):
        with open(DIGESTS) as f:
            self.pinned = json.load(f).get(workload, {}).get(str(seed))
        self.seen = self.pinned
        if self.pinned is None:
            log(f"campaign_bench: no pinned digest for {workload} seed {seed}; "
                "checking that every campaign of the run renders the same report")

    def check(self, digest):
        if self.seen is None:
            self.seen = digest
        if digest != self.seen:
            want = "pinned" if self.pinned else "first"
            raise Failed(f"report digest {digest} != {want} digest {self.seen}")


def steal_ticks():
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def context(args, calibration, steal0, campaigns):
    """What a result depends on besides the code: the machine and the
    engine shape the campaigns actually ran with."""
    shape = campaigns[0] if campaigns else {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "processes": shape.get("processes"),
        "shards_per_process": shape.get("shards"),
        "supervised": bool(shape.get("supervised")),
        "calibration_kops": calibration,
        "steal_ticks": steal_ticks() - steal0,
    }


def calibrate(bins):
    line, _ = run_proc([os.path.join(bins, "campaign-bench"), "calibrate"])
    return line["calibration_kops"]


def workdir(name):
    d = os.path.abspath(os.path.join(".bench_work", name))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def campaign(bins, args, gate, tally, in_process=False):
    argv = [os.path.join(bins, "campaign-bench"), "campaign", "--workload", args.workload,
            "--seed", str(args.seed), "--work", workdir(f"{args.workload}-campaign")]
    if in_process:
        argv.append("--in-process")
    line, ru = run_proc(argv)
    tally["worker_retries"] += line["retries"]
    gate.check(line["digest"])
    if line["retries"] > 0:
        raise Failed(f"{line['retries']} worker retries")
    if line["observations"] <= 0 or line["wall_s"] <= line["setup_s"]:
        raise Failed("campaign observed nothing")
    line["cpu_s"] = ru.ru_utime + ru.ru_stime
    line["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    line["obs_per_s"] = line["observations"] / (line["wall_s"] - line["setup_s"])
    return line


def setup_sample(bins, args, done):
    """One cold set-up in a fresh process; returns its seconds."""
    line, _ = run_proc([os.path.join(bins, "campaign-bench"), "setup", "--workload",
                        args.workload, "--seed", str(args.seed)])
    if done and line["targets"] != done[0]["targets"]:
        raise Failed(f"set-up found {line['targets']} targets, "
                     f"the campaigns {done[0]['targets']}")
    return line["setup_s"]


def untraced(bins, args):
    gate = DigestGate(args.workload, args.seed)
    calibration = calibrate(bins)
    steal0 = steal_ticks()
    done, setups, errors, attempted = [], [], [], 0
    tally = {"worker_retries": 0}
    t0 = time.monotonic()
    campaigns = 0
    while ((campaigns < MIN_CAMPAIGNS or time.monotonic() - t0 < args.seconds)
           and time.monotonic() < deadline):
        campaigns += 1
        attempted += 1
        try:
            c = campaign(bins, args, gate, tally)
            done.append(c)
            setups.append(c["setup_s"])
            log(f"campaign {campaigns}: wall {c['wall_s']:.3f}s setup {c['setup_s']:.3f}s "
                f"cpu {c['cpu_s']:.2f}s rss {c['peak_rss_mb']:.0f}MB digest {c['digest']}")
        except Failed as e:
            errors.append(str(e))
            log(f"campaign {campaigns} FAILED: {e}")
        for _ in range(SETUP_BETWEEN):
            attempted += 1
            try:
                setups.append(setup_sample(bins, args, done))
            except Failed as e:
                errors.append(f"set-up: {e}")
    while len(setups) < SETUP_SAMPLES and not errors:
        attempted += 1
        try:
            setups.append(setup_sample(bins, args, done))
        except Failed as e:
            errors.append(f"set-up: {e}")
    log(f"setup_s samples: {' '.join(f'{x:.4f}' for x in setups)}")

    ctx = context(args, calibration, steal0, done)
    ctx["campaigns"] = len(done)
    ctx["setup_samples"] = len(setups)
    ctx["attempted"] = attempted
    ctx["failed"] = len(errors)
    ctx["worker_retries"] = tally["worker_retries"]
    print(json.dumps({"context": ctx}))
    metrics = {}
    if done and setups:
        for name in metric_names("end_to_end"):
            samples = setups if name == "setup_s" else [c[name] for c in done]
            metrics[name] = statistics.median(samples)
    return attempted, errors, metrics


def traced(bins, args):
    gate = DigestGate(args.workload, args.seed)
    calibration = calibrate(bins)
    steal0 = steal_ticks()
    errors, runs = [], []
    for k in (1, 2):
        argv = [os.path.join(bins, "campaign-trace"), "--workload", args.workload,
                "--seed", str(args.seed), "--work", workdir(f"{args.workload}-traced-{k}")]
        try:
            line, _ = run_proc(argv)
            gate.check(line["digest"])
            runs.append(line)
            log(f"traced run {k}: wall {line['wall_ms'] / 1e3:.3f}s, {line['spans']} spans "
                f"written to .bench_work/{args.workload}-traced-{k}/spans.jsonl")
        except Failed as e:
            errors.append(str(e))
    # the workload's own untraced run; a supervised workload also gets an
    # in-process one, which is what the in-process traced run compares with
    refs, tally, attempted = {}, {"worker_retries": 0}, 3
    try:
        refs["own"] = campaign(bins, args, gate, tally)
    except Failed as e:
        errors.append(f"untraced reference: {e}")
    supervised = bool(refs.get("own", {}).get("supervised"))
    if supervised:
        attempted += 1
        try:
            refs["in-process"] = campaign(bins, args, gate, tally, in_process=True)
        except Failed as e:
            errors.append(f"in-process reference: {e}")

    if len(runs) == 2:
        for key in EXACT:
            if runs[0][key] != runs[1][key]:
                errors.append(f"exact count {key} differs: {runs[0][key]} vs {runs[1][key]}")
    metrics = {}
    if runs and "own" in refs:
        ref = refs.get("in-process", refs["own"])
        own = refs["own"]
        traced_wall = statistics.mean(r["wall_ms"] for r in runs) / 1e3
        # the supervised engine's wall outside set-up (which the in-process
        # engine pays too) and the worker's instantiate, probe and reduce
        phases = ("blueprint_s", "discovery_s", "instantiate_s", "probe_s", "reduce_s")
        extra = {
            "mp.overhead_pct": 100.0 * (own["engine_wall_s"] - sum(own[k] for k in phases))
            / own["engine_wall_s"] if supervised else 0.0,
            "mp.worker_retries": float(tally["worker_retries"]),
            "bench.trace_overhead_pct": 100.0 * (traced_wall - ref["wall_s"]) / ref["wall_s"],
            "bench.calibration_kops": calibration,
        }
        for name in metric_names("per_layer"):
            metrics[name] = extra[name] if name in extra else statistics.mean(
                r[name] for r in runs)
    ctx = context(args, calibration, steal0, list(refs.values()))
    ctx["attempted"] = attempted
    ctx["failed"] = len(errors)
    ctx["worker_retries"] = tally["worker_retries"]
    print(json.dumps({"context": ctx}))
    return attempted, errors, metrics


def bench_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def metric_names(kind):
    return [m["name"] for m in bench_spec()[kind]]


def result(attempted, errors, metrics, kind):
    units = {m["name"]: m["unit"] for m in bench_spec()[kind]}
    correct = not errors and set(metrics) == set(units)
    for e in errors:
        log(f"campaign_bench: FAILED: {e}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def steadiness(args):
    """Run the benchmark k times on one workload, one seed each, and print
    each end-to-end metric's median, quartiles and (q3-q1)/median against
    its bound, with every run's calibration score and steal ticks."""
    bounds = {m["name"]: m["bound"] for m in bench_spec()["end_to_end"]}
    rows = []
    for i in range(args.steadiness):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.monotonic()
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = p.stdout.strip().splitlines()
        ctx = next((json.loads(l)["context"] for l in lines if l.startswith('{"context"')), {})
        res = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        rows.append((seed, res, ctx, time.monotonic() - t0, p.returncode))
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: exit {p.returncode} correct {res['correct']} "
              f"attempted {res.get('attempted')} failed {res.get('failed')} "
              f"calibration {ctx.get('calibration_kops', 0):.0f} kops "
              f"steal {ctx.get('steal_ticks')} nproc {ctx.get('nproc')} "
              f"processes {ctx.get('processes')} shards/process {ctx.get('shards_per_process')} "
              f"took {rows[-1][3]:.1f}s | {vals}", flush=True)
    worst = 0.0
    for name, bound in bounds.items():
        vals = [r[1]["metrics"][name]["value"] for r in rows if name in r[1]["metrics"]]
        if len(vals) < 2:
            print(f"{name}: too few values")
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        worst = max(worst, spread / bound)
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
              f"bound {bound} spread/bound {spread / bound:.2f}")
    print(f"worst spread/bound: {worst:.2f}")


def pin_digests(bins, seeds):
    """Pin each workload's report digest for the given seeds, rendered on
    two in-process shards (reports are byte-identical across shards)."""
    with open(DIGESTS) as f:
        pins = json.load(f)
    for w in WORKLOADS:
        for seed in seeds:
            line, _ = run_proc([os.path.join(bins, "campaign-bench"), "digest",
                                "--workload", w, "--seed", str(seed)])
            pins.setdefault(w, {})[str(seed)] = line["digest"]
            log(f"{w} seed {seed}: {line['digest']}")
        pins[w] = dict(sorted(pins[w].items(), key=lambda kv: int(kv[0])))
        with open(DIGESTS, "w") as f:
            json.dump(pins, f, indent=1)
            f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="K",
                    help="run the benchmark K times on --workload, seeds "
                         "--first-seed.., and report each metric's spread")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--pin-digests", metavar="A-B",
                    help="pin report digests for seeds A..B of every workload")
    args = ap.parse_args()

    if args.steadiness:
        if not args.workload:
            ap.error("--steadiness needs --workload")
        steadiness(args)
        return 0
    bins = build()
    if args.pin_digests:
        a, b = (int(x) for x in args.pin_digests.split("-"))
        pin_digests(bins, range(a, b + 1))
        return 0
    global deadline
    deadline = time.monotonic() + RUN_BUDGET_S
    if not args.workload:
        ap.error("--workload is required")
    kind = "per_layer" if args.trace else "end_to_end"
    attempted, errors, metrics = (traced if args.trace else untraced)(bins, args)
    res = result(attempted, errors, metrics, kind)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
