"""The sytkit benchmark.

    python3 perfbench/run.py --workload stretch --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``stretch``: the scripts/run_verification.py --stretch battery (n = 9);
- ``desk``: the default battery (n <= 7);
- ``queries``: a closed loop of seeded library calls, one client.

Every battery and every query session runs in a fresh worker process
(worker.py) with jobs=1, and every answer is checked (gates.py).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one traced run, and the
full trace is written to perfbench/out/.  The line before it records the
environment: Python version, core count, jobs, seed and commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from math import factorial

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

WORKLOADS = ("stretch", "desk", "queries")
SETUP_SAMPLES = 11  # worker start-ups per run; setup_s is their median
TRACE_BLOCKS = 300  # query blocks in each half of a traced run
DEADLINE_S = 170.0  # the whole run, workers included
BUILD = "weakorder.build_poset"


class BenchError(RuntimeError):
    pass


def spawn(deadline: float, workload: str, seed: int, *extra: str) -> dict:
    """Run one fresh worker; its result plus setup_s, the time from start
    to the end of set-up, scaled by the speed the worker measured just
    before and after it."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(extra)} exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["raw_setup_s"] = result["ready_at"] - started - result["sampling_s"]
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result


def quantiles(values, probs) -> list[float]:
    """Harrell-Davis estimates: each a mean of all order statistics, weighted
    by a Beta distribution around the quantile.  Every end-to-end metric is
    reported on every workload, and a battery has only about a hundred
    operations with wide gaps between their times; there the single order
    statistic that statistics.quantiles picks jumps from one side of a gap
    to the other when one operation is disturbed, and this estimate moves
    smoothly."""
    # imported here, once every worker has ended: a child process starts
    # with its parent's peak RSS, so importing scipy before the workers
    # would show in their peak_rss_mb
    from scipy.stats.mstats import hdquantiles

    return [float(q) for q in hdquantiles(sorted(values), prob=probs)]


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """End-to-end metrics, untraced, scaled to the reference speed; and the
    same figures raw, with the median speed scale."""
    if workload == "queries":
        runs = [spawn(deadline, workload, seed, "--seconds", str(seconds))]
    else:
        runs = []
        start = time.monotonic()
        while not runs or time.monotonic() - start < seconds:
            runs.append(spawn(deadline, workload, seed))
    probes = [spawn(deadline, workload, seed, "--probe")
              for _ in range(SETUP_SAMPLES - len(runs))]

    def figures(setup, passes, ops):
        op_s = [s for r in runs for s in r[ops]]
        p50, p99 = quantiles(op_s, [0.50, 0.99])
        return {
            "setup_s": (statistics.median(r[setup] for r in runs + probes), "s"),
            "wall_s": (statistics.median(s for r in runs for s in r[passes]), "s"),
            "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_p99_ms": (p99 * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
        }

    raw = {name: value for name, (value, _) in
           figures("raw_setup_s", "raw_pass_s", "raw_op_s").items()}
    raw["scale"] = statistics.median(r["scale"] for r in runs)
    return runs, figures("setup_s", "pass_s", "op_s"), raw


def is_check(name: str) -> bool:
    return name.startswith("verify.") or ".verify_" in name or ".check_monotone" in name


# per-layer figures for functions that some workload never calls: on that
# workload they would be a time that reads 0 on every run, so they go to the
# trace file only, not to the result line
TRACE_FILE_ONLY = (
    "tableau.rsk_ms", "tableau.inner_translate_ms", "weakorder.is_isomorphic_ms",
    "hopf.plactic_product_ms", "hopf.interval_product_ms",
    "verify.sweep_ms", "verify.checked_per_s", "verify.self_ms",
)


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced run; see README.md for what each
    should move.  Times are scaled by the traced worker's overall speed."""
    trace = traced["trace"]
    functions = trace["functions"]  # name -> [calls, inclusive s, self s]
    to_ms = traced["scale"] * 1e3

    def calls(name):
        return (functions.get(name, [0])[0], "count")

    def ms(name):
        return (functions.get(name, [0, 0.0])[1] * to_ms, "ms")

    def self_ms(module):
        return (sum(v[2] for k, v in functions.items() if k.startswith(module + "."))
                * to_ms, "ms")

    spans = trace["spans"]  # [name, start, end, parent, arg, build s]
    builds = [s for s in spans if s[0] == BUILD]
    build_ms = sum(s[2] - s[1] for s in builds) * to_ms
    top = max(builds, key=lambda s: s[4])
    checks = [s for s in spans if s[3] == -1 and is_check(s[0])]
    sweep_ms = sum(s[2] - s[1] - s[5] for s in checks) * to_ms
    poset = trace["top_poset"]
    return {
        "weakorder.build_poset_ms": (build_ms, "ms"),
        "weakorder.build_poset.top_ms": ((top[2] - top[1]) * to_ms, "ms"),
        "weakorder.words_per_s": (sum(factorial(s[4]) for s in builds) / build_ms * 1e3,
                                  "1/s"),
        "weakorder.nodes.top": (poset["nodes"], "count"),
        "weakorder.covers.top": (poset["covers"], "count"),
        "weakorder.relations.top": (poset["relations"], "count"),
        "weakorder.induced_covers.calls": calls("weakorder.induced_covers"),
        "weakorder.induced_covers_ms": ms("weakorder.induced_covers"),
        "weakorder.interval_ms": ms("weakorder.interval"),
        "weakorder.is_isomorphic.calls": calls("weakorder.is_isomorphic"),
        "weakorder.is_isomorphic_ms": ms("weakorder.is_isomorphic"),
        "weakorder.self_ms": self_ms("weakorder"),
        "tableau.check_standard.calls": calls("tableau.check_standard"),
        "tableau.check_standard_ms": ms("tableau.check_standard"),
        "tableau.insertion_tableau.calls": calls("tableau.insertion_tableau"),
        "tableau.inner_translate.calls": calls("tableau.inner_translate"),
        "tableau.inner_translate_ms": ms("tableau.inner_translate"),
        "tableau.restrict_ms": ms("tableau.restrict"),
        "tableau.jdt_slide.calls": calls("tableau.jdt_slide"),
        "tableau.jdt_slide_ms": ms("tableau.jdt_slide"),
        "tableau.rsk.calls": calls("tableau.rsk"),
        "tableau.rsk_ms": ms("tableau.rsk"),
        "tableau.self_ms": self_ms("tableau"),
        "knuthclass.knuth_class.calls": calls("knuthclass.knuth_class"),
        "knuthclass.knuth_class_ms": ms("knuthclass.knuth_class"),
        "knuthclass.knuth_class.words": (trace["sizes"].get("knuthclass.knuth_class", 0), "count"),
        "knuthclass.self_ms": self_ms("knuthclass"),
        "permutation.knuth_neighbors.calls": calls("permutation.knuth_neighbors"),
        "permutation.self_ms": self_ms("permutation"),
        "hopf.plactic_product.calls": calls("hopf.plactic_product"),
        "hopf.plactic_product_ms": ms("hopf.plactic_product"),
        "hopf.interval_product.calls": calls("hopf.interval_product"),
        "hopf.interval_product_ms": ms("hopf.interval_product"),
        "hopf.shuffle_words": (trace["sizes"].get("permutation.interleavings", 0), "count"),
        "hopf.self_ms": self_ms("hopf"),
        "verify.sweep_ms": (sweep_ms, "ms"),
        "verify.checked": (traced["checked"], "count"),
        "verify.checked_per_s": (traced["checked"] / sweep_ms * 1e3 if sweep_ms else 0.0,
                                 "1/s"),
        "verify.self_ms": self_ms("verify"),
        "trace.calls": (sum(v[0] for v in functions.values()), "count"),
        "trace.overhead_s": (sum(traced["pass_s"]) - sum(untraced["pass_s"]), "s"),
    }


def check_times(trace: dict) -> list[dict]:
    """Each battery operation's time, split into poset builds and the rest
    (its sweep)."""
    spans = trace["spans"]
    out = []
    for label, first, end in trace["labels"]:
        tops = [s for s in spans[first:end] if s[3] == -1]
        total = sum(s[2] - s[1] for s in tops)
        build = sum(s[5] for s in tops)
        out.append({"op": label, "ms": total * 1e3, "build_ms": build * 1e3,
                    "self_ms": (total - build) * 1e3})
    return out


def trace_run(workload: str, seed: int, deadline: float, env: dict):
    fixed = ("--blocks", str(TRACE_BLOCKS)) if workload == "queries" else ()
    untraced = spawn(deadline, workload, seed, *fixed)
    traced = spawn(deadline, workload, seed, *fixed, "--trace", "1")
    metrics = layer_metrics(traced, untraced)
    OUT_DIR.mkdir(exist_ok=True)
    trace = traced["trace"]
    record = {
        "environment": env,
        "metrics": {k: v[0] for k, v in metrics.items()},  # TRACE_FILE_ONLY too
        "speed_scale": traced["scale"],  # the times below are raw
        "functions": {k: {"calls": v[0], "ms": v[1] * 1e3, "self_ms": v[2] * 1e3}
                      for k, v in trace["functions"].items()},
        "checks": check_times(trace),
        "span_fields": ["name", "start_s", "end_s", "parent", "arg", "build_s"],
        "spans": trace["spans"],
    }
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"trace written to {path.relative_to(ROOT)}")
    raw = {"untraced_pass_s": sum(untraced["raw_pass_s"]),
           "traced_pass_s": sum(traced["raw_pass_s"]), "scale": traced["scale"]}
    printed = {k: v for k, v in metrics.items() if k not in TRACE_FILE_ONLY}
    return [untraced, traced], printed, raw


def git_commit() -> str | None:
    """The commit checked out here, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the library sources, which names the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "sytkit" / "__init__.py").is_file():
        print(f"no sytkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args)
    try:
        if args.trace:
            runs, metrics, raw = trace_run(args.workload, args.seed, deadline, env)
        else:
            runs, metrics, raw = measure(args.workload, args.seed, args.seconds, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for problem in r["problems"]:
            print("gate:", problem)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted})")
    # the result line's keys are fixed, so the raw (unscaled) figures and
    # the speed scale go on the line before it
    print(json.dumps({"environment": env, "raw": raw}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
