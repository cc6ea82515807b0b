#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in this directory).

Run from the repository root:

  python3 perfbench/run.py --workload fed8-replay --seed 1 --seconds 20 --trace 0
      one run of one workload; the last stdout line is the JSON result.
  python3 perfbench/run.py --all [--seeds 1,2] [--seconds 20]
      every workload, each in its own process, in alternating order, untraced
      and traced; prints every metric with its unit and better-direction.
  python3 perfbench/run.py --smoke
      every workload at tiny size, traced and untraced; fails unless every
      metric named in BENCHMARK.json is present and finite and every output
      check passes.

The Go build cache, the binary and all scratch files live under
.bench_build/ (or $CARGO_TARGET_DIR) in the repository root.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["figures", "fed8-replay", "fed8-replay-sw2"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Compiles the benchmark; the Go caches stay inside the build dir."""
    bd = build_dir()
    tmp = os.path.join(bd, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(bd, "gocache"),
        GOPATH=os.path.join(bd, "gopath"),
        GOMODCACHE=os.path.join(bd, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(bd, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        GOFLAGS="",
    )
    binary = os.path.join(bd, "perfbench")
    proc = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def run_once(binary, workload, seed, seconds, trace, tiny=False, echo=True):
    """Runs one workload in a fresh process; returns its JSON result."""
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", build_dir()]
    if tiny:
        args.append("--tiny")
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} seed {seed} trace {trace} exited {proc.returncode}")
    return lines[-1], json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cmd_all(binary, seeds, seconds):
    spec = load_spec()
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    order = list(WORKLOADS)
    results = {}  # (workload, trace) -> list of metric dicts
    for i, seed in enumerate(seeds):
        # Alternate the run order so no workload always runs first.
        run_order = order if i % 2 == 0 else order[::-1]
        for w in run_order:
            for trace in (0, 1):
                _, res = run_once(binary, w, seed, seconds, trace, echo=False)
                if not res["correct"]:
                    print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} checks failed")
                results.setdefault((w, trace), []).append(res["metrics"])
    for w in WORKLOADS:
        print(f"\n== {w} (seeds {','.join(map(str, seeds))}; median over seeds)")
        for trace in (0, 1):
            runs = results[(w, trace)]
            for name in runs[0]:
                vals = sorted(r[name]["value"] for r in runs)
                med = vals[len(vals) // 2] if len(vals) % 2 else (vals[len(vals) // 2 - 1] + vals[len(vals) // 2]) / 2
                better = defs.get(name, {}).get("better", "?")
                print(f"  {name:36s} {med:14.6g} {runs[0][name]['unit']:10s} ({better} is better)")


def cmd_smoke(binary):
    spec = load_spec()
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            _, res = run_once(binary, w, 1, 1, trace, tiny=True, echo=False)
            problems = []
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(res)}")
            if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append(f"{res.get('failed')} of {res.get('attempted')} checks failed")
            metrics = res.get("metrics", {})
            names = {m["name"] for m in want[trace]}
            if set(metrics) != names:
                problems.append(f"metric names differ: missing {sorted(names - set(metrics))}, "
                                f"extra {sorted(set(metrics) - names)}")
            for m in want[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    continue
                v = got.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{m['name']} = {v!r}")
                if got.get("unit") != m["unit"]:
                    problems.append(f"{m['name']} unit {got.get('unit')!r}, want {m['unit']!r}")
                if trace == 0 and v == 0:
                    problems.append(f"{m['name']} is 0")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {w} trace {trace}: {status}")
            failures += bool(problems)
    if failures:
        sys.exit(f"perfbench: smoke check failed in {failures} run(s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not (a.all or a.smoke or a.workload):
        ap.error("give --workload, --all or --smoke")
    binary = build()
    if a.smoke:
        cmd_smoke(binary)
    elif a.all:
        cmd_all(binary, [int(s) for s in a.seeds.split(",")], a.seconds)
    else:
        line, _ = run_once(binary, a.workload, a.seed, a.seconds, a.trace)
        print(line)


if __name__ == "__main__":
    main()
