#!/usr/bin/env python3
"""End-to-end P0-P4 benchmark of the distributed RWBC pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload ws300_t2 --seed 1 --seconds 25 --trace 0

Builds the library and the rwbc_perfbench binary from source into
.bench_build/perfbench (Release), then measures one workload.  Every
measured pipeline run is a fresh rwbc_perfbench process with a fresh
checkpoint directory.  --trace 0 prints the end-to-end metrics of untraced
runs; --trace 1 alternates untraced and traced runs and prints the per-layer
metrics.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BIN = BUILD / "rwbc_perfbench"

WORKLOADS = ("ws300_t2", "ws600_k4_serial", "ops_ws64_sharded")  # perfbench.cpp
PHASES = ["p0_election", "p1_bfs", "p2_dissem", "p3_counting", "p4_computing"]
INPUTS = 3             # inputs per --trace 0 run; = kGraphPool in perfbench.cpp
MAX_FAILED = 3         # stop repeating after this many failed runs
MIN_TAU = 0.3          # Kendall tau of the scores against the exact oracle
PROCESS_TIMEOUT = 150  # seconds; a run that hangs counts as failed
# Every rwbc_perfbench process, with its threads and forked shards, runs on
# this one CPU.  On a shared host a thread that blocks leaves its vCPU idle,
# and waking it again can take a millisecond; confined to one CPU, the
# threads of a run hand over by a context switch instead.  Unpinned, one
# ws300_t2 or ops_ws64_sharded run varied by a factor of 3-4.
CPU = max(os.sched_getaffinity(0))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds rwbc_perfbench; exits 1 on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rwbc_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("error: build failed:", " ".join(cmd))
            sys.exit(1)


def call(args):
    """Runs rwbc_perfbench; returns its JSON line, or an error record."""
    # Its own process group, so that a forked shard left behind by a run that
    # hangs or dies is stopped with it.
    proc = subprocess.Popen([str(BIN)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {CPU}))
    try:
        stdout, stderr = proc.communicate(timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        stop_group(proc)
    if stdout is None:
        return {"ok": False, "error": f"timed out after {PROCESS_TIMEOUT} s"}
    lines = stdout.strip().splitlines()
    err = stderr.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False,
                "error": f"exit {proc.returncode}: {err[-1] if err else 'no output'}"}
    try:
        out = json.loads(lines[-1])
    except ValueError as e:
        return {"ok": False, "error": f"unparsable output ({e}): {lines[-1][:200]}"}
    if not out.get("ok", True) and err:
        # A forked shard that throws reports its own line on stderr.
        out["error"] += f" (stderr: {err[-1]})"
    return out


def stop_group(proc):
    """Kills what is left of proc's process group and waits until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Runs:
    """Makes pipeline runs, counts attempted/failed, collects gate failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def pipeline(self, seed, extra):
        """One fresh-process run with a fresh checkpoint directory; None if
        it failed."""
        ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=BUILD / "tmp")
        try:
            self.attempted += 1
            out = call(["run", "--workload", self.workload, "--seed", str(seed),
                        "--ckpt-dir", ckpt] + extra)
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)
        if not out.get("ok"):
            self.failed += 1
            print(f"failed run: {out.get('error_type', 'harness')}: {out.get('error')}",
                  flush=True)
            return None
        log(f"run: seed {seed} {' '.join(extra)}: wall_s {out['wall_s']:.4f}")
        self.gate(out)
        return out

    def gate(self, out):
        report = out["report"]
        walks = report["walks"]
        self.check(walks["exact"] and walks["lost"] == 0 and walks["abandoned"] == 0,
                   f"walk census not exact: {walks}")
        self.check(out["score_count"] == out["nodes"],
                   f"{out['score_count']} scores for {out['nodes']} nodes")
        self.check(sum(out["phases"][p]["rounds"] for p in PHASES) == report["rounds"],
                   "per-phase rounds do not sum to the total")
        if "score_mre" in out:
            # A non-finite value arrives as null.
            mre, tau = out["score_mre"], out["score_tau"]
            self.check(mre is not None and math.isfinite(mre), "score_mre is not finite")
            self.check(tau is not None and tau >= MIN_TAU,
                       f"Kendall tau {tau} against the oracle < {MIN_TAU}")

    def agree(self, outs, what):
        """Every run of one spec must repeat the exact counts and scores."""
        for out in outs[1:]:
            self.check(exact_view(out) == exact_view(outs[0]), what)

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
            print("gate failed:", what, flush=True)


def exact_view(out):
    """The fields that must repeat bit for bit across runs of one spec: the
    whole RunReport except the checkpoint writer's telemetry (timing-bound)
    and the shard count (a 1-shard run must match the sharded one), plus the
    per-phase counts and the scores."""
    report = {k: v for k, v in out["report"].items() if k not in ("checkpoint", "shards")}
    return {"report": report, "phases": out["phases"], "score_count": out["score_count"],
            "score_digest": out["score_digest"]}


def messages(out):
    return out["report"]["metrics"]["total_messages"]


def measured(outs):
    return sum(o["wall_s"] for o in outs)


def pooled_median(outs, key):
    """Median of the set-up samples (setup_s or gen_ms) of all runs."""
    return statistics.median(x for o in outs for x in o[key])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runs, seed, seconds):
    # Three inputs per run, input i on graph i of the workload's pool: the
    # work (rounds, messages) of one input varies with its graph and its
    # drawn target by ~5% (standard deviation), so a run averages three.
    seeds = [seed * INPUTS + i for i in range(INPUTS)]
    by_input = {s: [] for s in seeds}
    k = 0
    # Round-robin over the inputs until each has run once and --seconds of
    # pipeline wall time are measured.  Every run is also scored against the
    # exact oracle, outside its timed region; the oracle's scores are cached
    # per graph, since they depend on the graph alone.
    while runs.failed < MAX_FAILED and (
            k < INPUTS or measured(sum(by_input.values(), [])) < seconds):
        s = seeds[k % INPUTS]
        k += 1
        cache = BUILD / "oracle" / f"{runs.workload}-graph{s % INPUTS}.bin"
        out = runs.pipeline(s, ["--oracle", "--oracle-cache", str(cache)])
        if out is not None:
            by_input[s].append(out)
    if not all(by_input.values()):
        return {}
    for outs in by_input.values():
        runs.agree(outs, "repeated runs of one input disagree on counts or scores")
    firsts = [outs[0] for outs in by_input.values()]
    if any(o["score_mre"] is None for o in firsts):
        return {}  # the gate has failed the run
    # wall_s and the counts are means over the inputs, so each input weighs
    # the same whatever its work; an input's wall time is the median of its
    # runs, which a slow spell of the host shifts less than a mean would.
    wall = statistics.mean(statistics.median(o["wall_s"] for o in outs)
                           for outs in by_input.values())
    msgs = statistics.mean(messages(o) for o in firsts)
    every = sum(by_input.values(), [])
    return {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(pooled_median(every, "setup_s"), "s"),
        "msgs_per_s": metric(msgs / wall, "msg/s"),
        "rounds": metric(statistics.mean(o["report"]["rounds"] for o in firsts), "rounds"),
        "messages": metric(msgs, "msgs"),
        "bits": metric(statistics.mean(o["report"]["bits"] for o in firsts), "bits"),
        "peak_rss_mb": metric(statistics.median(o["peak_rss_mb"] for o in every), "MiB"),
        "score_mre": metric(statistics.mean(o["score_mre"] for o in firsts), "ratio"),
    }


def per_layer(runs, seed, seconds):
    seed *= INPUTS  # the first input of the --trace 0 run with this seed
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{runs.workload}-input{seed}.jsonl"
    plain, traced = [], []
    while runs.failed < MAX_FAILED and (
            not plain or not traced or measured(plain + traced) < seconds):
        # Alternate which side goes first, so drift hits both alike.
        first_plain = len(traced) % 2 == 0
        for kind in ("plain", "traced") if first_plain else ("traced", "plain"):
            if kind == "plain":
                out = runs.pipeline(seed, ["--oracle"] if not plain else [])
                if out is not None:
                    plain.append(out)
            else:
                out = runs.pipeline(seed, ["--trace", str(trace_path)])
                if out is not None:
                    traced.append(out)
    if not plain or not traced:
        return {}
    runs.agree(plain + traced, "traced and untraced runs disagree on counts or scores")
    # The traced run itself fails if its stamps do not segment exactly into
    # the per-phase round counts or go backwards; the phase times, init_ms
    # and post_ms then split the traced wall time exactly.
    for out in traced:
        runs.check(out["trace"]["rounds_stamped"] == out["report"]["rounds"],
                   "trace did not stamp every round")
    print("trace:", trace_path.relative_to(ROOT), flush=True)

    if plain[0]["report"]["shards"] > 1:
        # Exchange counts from outside: the same spec on one shard must meter
        # the same traffic on the 2-shard boundary, with identical outputs.
        single = runs.pipeline(seed, ["--shards", "1"])
        if single is not None:
            runs.agree([plain[0], single], "1-shard run disagrees with the sharded run")

    phases = plain[0]["phases"]
    p3, p4 = phases["p3_counting"], phases["p4_computing"]

    def med(f):
        return statistics.median(f(o) for o in traced)

    m = {"graph.gen_ms": metric(pooled_median(traced, "gen_ms"), "ms")}
    for p in PHASES:
        m[f"{p}.wall_s"] = metric(med(lambda o: o["trace"][p]["wall_s"]), "s")
        m[f"{p}.share"] = metric(med(lambda o: o["trace"][p]["wall_s"] / o["wall_s"]), "ratio")
        m[f"{p}.rounds"] = metric(phases[p]["rounds"], "rounds")
        m[f"{p}.messages"] = metric(phases[p]["messages"], "msgs")
        m[f"{p}.bits"] = metric(phases[p]["bits"], "bits")
    m["post_ms"] = metric(med(lambda o: o["trace"]["post_ms"]), "ms")
    for short, p in (("p3", "p3_counting"), ("p4", "p4_computing")):
        c = phases[p]
        m[f"{short}.init_ms"] = metric(med(lambda o: o["trace"][p]["init_ms"]), "ms")
        m[f"{short}.ns_per_msg"] = metric(
            med(lambda o: 1e9 * o["trace"][p]["wall_s"] / c["messages"]), "ns")
        m[f"{short}.round_us_p50"] = metric(med(lambda o: o["trace"][p]["round_us_p50"]), "us")
        m[f"{short}.round_us_p99"] = metric(med(lambda o: o["trace"][p]["round_us_p99"]), "us")
        m[f"{short}.msgs_per_round"] = metric(c["messages"] / c["rounds"], "msgs")
        m[f"{short}.awake_per_round"] = metric(
            med(lambda o: o["trace"][p]["awake_per_round"]), "nodes")
    m["pool.cpu_util"] = metric(
        statistics.median(o["cpu_s"] / (o["wall_s"] * o["workers"]) for o in plain), "ratio")
    m["p3.retransmissions"] = metric(p3["retransmissions"], "count")
    m["p3.replica_bit_share"] = metric(p3["replica_bits"] / p3["bits"], "ratio")
    m["p3.adopted_walks"] = metric(p3["adopted_walks"], "count")
    m["p3.useful_msg_ratio"] = metric(
        (p3["messages"] - p3["replica_messages"] - p3["retransmissions"]) / p3["messages"],
        "ratio")
    def ckpt(o):
        return o["report"]["checkpoint"]

    m["ckpt.stall_ms"] = metric(med(lambda o: ckpt(o)["driver_ns"] / 1e6), "ms")
    m["ckpt.stall_share"] = metric(med(lambda o: ckpt(o)["driver_ns"] / 1e9 / o["wall_s"]),
                                   "ratio")
    m["ckpt.written"] = metric(med(lambda o: ckpt(o)["written"]), "count")
    m["ckpt.dropped"] = metric(med(lambda o: ckpt(o)["dropped_oldest"]), "count")
    cut_msgs = p3["cut_messages"] + p4["cut_messages"]
    m["xchg.cut_messages"] = metric(cut_msgs, "msgs")
    m["xchg.cut_bits"] = metric(p3["cut_bits"] + p4["cut_bits"], "bits")
    m["xchg.cut_share"] = metric(cut_msgs / (p3["messages"] + p4["messages"]), "ratio")
    untraced_wall = statistics.median(o["wall_s"] for o in plain)
    m["trace.overhead_pct"] = metric(
        100.0 * (statistics.median(o["wall_s"] for o in traced) / untraced_wall - 1.0), "%")
    m["oracle_s"] = metric(plain[0]["oracle_s"], "s")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    prov = call(["provenance"])
    if prov.get("sanitized") or prov.get("rwbc_sanitize"):
        print("error: refusing to benchmark a sanitizer build", flush=True)
        sys.exit(1)
    print(f"provenance: nproc={os.cpu_count()} compiler={prov['compiler']} "
          f"build_type={prov['build_type']}", flush=True)
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    (BUILD / "oracle").mkdir(parents=True, exist_ok=True)

    runs = Runs(args.workload)
    if args.trace:
        metrics = per_layer(runs, args.seed, args.seconds)
    else:
        metrics = end_to_end(runs, args.seed, args.seconds)
    correct = runs.failed == 0 and not runs.problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
