#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, print its result.

Run from the repository root:

    python3 perfbench/run.py --workload service_mix --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --steady 10 --workload all            # run-to-run spread
    python3 perfbench/run.py --steady 10 --workload all \
        --against DIR                       # compare with the steady-*.json of another set

A single run builds `perfbench` (a Cargo package of its own, against the
repository's crates) into `$CARGO_TARGET_DIR` (default `.bench_build`),
runs the workload, records the seed, the commit and a host fingerprint
with the full result in `perfbench/out/results.jsonl`, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: every end-to-end metric of BENCHMARK.json with `--trace 0`,
every per-layer metric with `--trace 1`. A run whose output digest
differs from an earlier run of the same sources, workload and seed in
the same checkout is not correct. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Every workload the binary runs; `--workload all` means the ones
# BENCHMARK.json gates. `scale_pipeline` is run by hand only (README,
# "Why scale_pipeline is not gated").
WORKLOADS = ["service_mix", "scale_pipeline", "tune_sweep"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def binary():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target, os.path.join(target, "release", "perfbench")


def build():
    target, exe = binary()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        fail("build failed")
    return exe


def host():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                               text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "rustc": rustc}


def commit():
    """The git commit, or a digest of the sources when not in a repository."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
        if p.returncode == 0 and p.stdout.strip():
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "tree-" + source_digest()


def source_digest():
    """Digest of the sources the benchmark builds, committed or not."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), HERE]
    files = [os.path.join(ROOT, n) for n in ("Cargo.toml", "Cargo.lock")]
    for top in roots:
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "out"))
            files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_once(exe, workload, seed, seconds, trace):
    """One run of the measuring binary; returns its result record."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT, f"spans-{workload}-{seed}.tsv")]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        fail(f"{workload} exited with code {p.returncode}")
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def check_digest(rec, source):
    """Same sources, workload and seed must give the same deterministic
    outputs. Keyed on the sources too, so a change that is meant to alter
    outputs is compared only with runs of itself."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    key = f"{rec['workload']}/{rec['seed']}/{source}"
    seen = known.setdefault(key, rec["digest"])
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    if seen != rec["digest"]:
        return [f"digest {rec['digest']} differs from {seen} of an earlier run"]
    return []


def single(args):
    exe = build()
    rec = run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    problems = list(rec["run_failures"]) + check_digest(rec, source_digest())
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec()[section]]
    measured = rec[section]
    problems += [f"metric {n} not measured" for n in names if n not in measured]
    rec.update(commit=commit(), host=host(), problems=problems)
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")
    h = rec["host"]
    sys.stderr.write(f"commit={rec['commit']} host: nproc={h['nproc']} cpu={h['cpu']!r} "
                     f"rustc={h['rustc']!r}\n")
    if args.trace:
        overhead = measured.get("trace.overhead_pct", {}).get("value")
        sys.stderr.write(f"tracing overhead on {args.workload}: {overhead:.2f}% of ops_per_s\n")
    for p in problems:
        sys.stderr.write(f"problem: {p}\n")
    result = {
        "correct": bool(rec["correct"]) and not problems,
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {n: {"value": measured[n]["value"], "unit": measured[n]["unit"]}
                    for n in names if n in measured},
    }
    print(json.dumps(result))


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def compare(metric, new, old):
    """Classify a change between two sets of runs against the metric's bound."""
    bound, lower = metric["bound"], metric["better"] == "lower"
    m_new, m_old = statistics.median(new), statistics.median(old)
    worse = (m_new - m_old) / abs(m_old) if m_old else 0.0
    if not lower:
        worse = -worse
    noisy = max(spread(new), spread(old)) > bound
    beats = (max(new) < min(old)) if lower else (min(new) > max(old))
    loses = (min(new) > max(old)) if lower else (max(new) < min(old))
    if noisy and not (beats or loses):
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > spread(old) and beats:
        return "improved"
    return "unchanged"


def steady(args):
    exe = build()
    bench = spec()
    if args.workload == "all":
        workloads = [w["name"] for w in bench["workloads"]]
    else:
        workloads = [args.workload]
    ok = True
    source = source_digest()
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.steady):
            rec = run_once(exe, w, seed, args.seconds, False)
            problems = rec["run_failures"] + check_digest(rec, source)
            if not rec["correct"] or problems:
                ok = False
                print(f"{w} seed {seed}: not correct: {problems}")
            runs.append({m: v["value"] for m, v in rec["end_to_end"].items()})
        summary = {"workload": w, "seconds": args.seconds, "runs": runs,
                   "commit": commit(), "host": host()}
        print(f"\n{w}: {len(runs)} runs of {args.seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.steady - 1}")
        print(f"  {'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        against = None
        if args.against:
            path = args.against
            if os.path.isdir(path):
                path = os.path.join(path, f"steady-{w}.json")
            with open(path) as f:
                against = json.load(f)
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            s = spread(vals)
            verdict = "ok" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
            if s > m["bound"]:
                ok = False
            line = f"  {m['name']:<18} {statistics.median(vals):>12.4f} {s:>8.4f} {m['bound']:>6}  {verdict}"
            if against:
                old = [r[m["name"]] for r in against["runs"]]
                line += f"  vs {statistics.median(old):.4f}: {compare(m, vals, old)}"
            print(line)
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"steady-{w}.json"), "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="run each workload this many times (seeds first-seed..) and report spreads")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against", help="a steady-<workload>.json from another set of runs, "
                    "or a directory holding them, to compare with")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.steady:
        if args.steady < 4:
            fail("--steady needs at least 4 runs for quartiles")
        steady(args)
    elif args.workload == "all":
        fail("--workload all needs --steady")
    else:
        single(args)


if __name__ == "__main__":
    main()
