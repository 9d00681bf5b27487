#!/usr/bin/env python3
"""Build and run robustmap's benchmark.

    python3 perfbench/run.py --workload paper-map --seed 1 --seconds 25 --trace 0

builds the Go program in perfbench/ from the checkout's sources (with a
build cache and scratch space under .bench_build/) and runs it; its
standard output ends with one JSON line of results.

    python3 perfbench/run.py --steadiness [--runs 10] [--sets 1]
                             [--workloads a,b] [--seed-base 1] [--seconds N]

repeats each workload with seeds seed-base .. seed-base+runs-1 and prints,
for every end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json. With
--sets 2 it repeats the whole set and reports how far the second median
moved from the first, against the same bound.

    python3 perfbench/run.py --write-benchmark-json

regenerates BENCHMARK.json from the program's workload and metric tables.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# One run must end within 180 seconds; the program bounds its own passes,
# this only guards against a hang.
RUN_TIMEOUT = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        PPROF_TMPDIR=os.path.join(BUILD, "pprof"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOENV="off",
    )
    return env


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                          stdout=sys.stderr, stderr=sys.stderr)
    return binary if proc.returncode == 0 else None


def run(binary, args):
    """Runs the binary once; returns (exit code, stdout text)."""
    cmd = [binary, "-root", ROOT, "-work", os.path.join(BUILD, "work")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=go_env(), stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        sys.stderr.write("perfbench: run timed out\n")
        return 1, out
    return proc.returncode, proc.stdout


def option(args, name, default):
    if name in args:
        i = args.index(name)
        return args[i + 1]
    return default


def steadiness(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    runs = int(option(args, "--runs", "10"))
    sets = int(option(args, "--sets", "1"))
    seed_base = int(option(args, "--seed-base", "1"))
    seconds = option(args, "--seconds", str(doc["run_seconds"]))
    names = option(args, "--workloads", ",".join(w["name"] for w in doc["workloads"])).split(",")
    metrics = doc["end_to_end"]
    ok = True
    record = {}
    for wl in names:
        medians = []
        for s in range(sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(runs):
                seed = seed_base + i
                t0 = time.monotonic()
                code, out = run(binary, ["-workload", wl, "-seed", str(seed), "-seconds", seconds, "-trace", "0"])
                lines = out.strip().splitlines()
                result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
                if code != 0 or not result or not result["correct"]:
                    print(f"{wl} set {s + 1} seed {seed}: FAILED (exit {code})")
                    sys.stdout.write(out)
                    ok = False
                    continue
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"{wl} set {s + 1} seed {seed} ({time.monotonic() - t0:.0f} s): " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics), flush=True)
            record[f"{wl}/{s + 1}"] = values
            print(f"\n{wl}, set {s + 1}: {runs} runs, {seconds} s each")
            print(f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
            med = {}
            for m in metrics:
                xs = values[m["name"]]
                if len(xs) < 2:
                    ok = False
                    continue
                q1, q2, q3 = statistics.quantiles(xs, n=4)
                med[m["name"]] = q2
                spread = (q3 - q1) / q2 if q2 else float("inf")
                if spread <= m["bound"] / 3:
                    verdict = "steady (below a third of the bound)"
                elif spread <= m["bound"]:
                    verdict = "within the bound"
                else:
                    verdict = "TOO WIDE"
                    ok = False
                print(f"  {m['name']:22} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.3g}  {verdict}")
            medians.append(med)
        for s in range(1, len(medians)):
            print(f"\n{wl}: set {s + 1} median against set 1")
            for m in metrics:
                a, b = medians[0].get(m["name"]), medians[s].get(m["name"])
                if not a or b is None:
                    continue
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "agrees" if worse <= m["bound"] else "WORSE BY MORE THAN THE BOUND"
                ok = ok and worse <= m["bound"]
                print(f"  {m['name']:22} {a:12.6g} -> {b:12.6g}  worse by {worse:+.4f} (bound {m['bound']})  {verdict}")
        print()
    with open(os.path.join(BUILD, "steadiness.json"), "w") as f:
        json.dump(record, f, indent=1)
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        return 1
    if "--write-benchmark-json" in args:
        code, out = run(binary, ["-describe"])
        if code != 0:
            return code
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(out)
        return 0
    if "--steadiness" in args:
        return steadiness(binary, args)
    code, out = run(binary, args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
