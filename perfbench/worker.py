"""One benchmark process: set up a workload, run it, check it, report.

run.py starts a fresh worker for every battery and every query session, so
no cache (``cached_poset``, the ``lru_cache`` tables) carries over between
them.  The worker prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload desk --seed 1
    python3 perfbench/worker.py --workload queries --seed 1 --seconds 2
    python3 perfbench/worker.py --workload queries --seed 1 --blocks 50 --trace 1
    python3 perfbench/worker.py --workload stretch --seed 1 --probe

``--probe`` stops after set-up.  The batteries run once; ``queries`` runs
blocks of operations for ``--seconds``, or exactly ``--blocks`` blocks.
Timings are reported scaled to the reference machine speed (speed.py),
raw ones next to them.
"""

from __future__ import annotations

import argparse
import contextlib
from array import array
import importlib
import json
import pathlib
import random
import resource
import sys
import time
import types

import gates
import workloads
from speed import SpeedMeter
from tracer import MODULES, Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import sytkit from this checkout's src/ and nowhere else."""
    if not (SRC / "sytkit" / "__init__.py").is_file():
        raise SystemExit(f"sytkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("sytkit")
    if pathlib.Path(package.__file__).resolve().parent != SRC / "sytkit":
        raise SystemExit(f"imported sytkit from {package.__file__}, not {SRC}")
    return package


# queries read their peak memory after this many blocks, before the
# benchmark's own per-operation records (which grow with the machine's
# speed) weigh in
RSS_BLOCKS = 100


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Session:
    """Runs operations, timing each one with the tracer (if any) switched
    on only inside the timed call, and samples machine speed between
    them."""

    def __init__(self, tracer: Tracer | None, meter: SpeedMeter) -> None:
        self.tracer = tracer
        self.meter = meter
        self.op_at = array("d")  # compact, so bookkeeping barely shows in peak RSS
        self.op_s = array("d")
        self.labels: list[list] = []  # [label, first span, end span]

    def run(self, op, sample_inside: bool = False):
        """Run and time one operation; with ``sample_inside``, machine
        speed is also sampled while it runs (for long battery checks)."""
        spans = self.tracer.spans if self.tracer else []
        first = len(spans)
        with self.meter.inside() if sample_inside else contextlib.nullcontext([0.0]) as spent:
            if self.tracer:
                self.tracer.active = True
            start, seconds, answer, error = workloads.run_op(op)
            if self.tracer:
                self.tracer.active = False
        self.op_at.append(start)
        self.op_s.append(seconds - spent[0])
        if op.label:
            self.labels.append([op.label, first, len(spans)])
        return answer, error

    def scaled(self, start: float, seconds: float) -> float:
        return seconds * self.meter.scale(start, start + seconds)

    def scaled_ops(self) -> list[float]:
        return [self.scaled(t, s) for t, s in zip(self.op_at, self.op_s)]

def run_battery(name: str, lib, session: Session) -> dict:
    top, max_n = workloads.BATTERIES[name]
    ops = workloads.battery_ops(lib, top, max_n)
    records, problems = [], []
    for op in ops:
        session.meter.sample()
        answer, error = session.run(op, sample_inside=True)
        if error is not None:
            problems.append(f"{op.label} raised {error!r}")
        else:
            records.append(answer)
    session.meter.sample()
    records = [gates.report_record(r) for reports in records for r in reports]
    golden = workloads.load_golden(name)
    mismatches = gates.compare_battery(records, golden)
    attempted = max(len(golden), len(records))
    return {
        "pass_s": [sum(session.scaled_ops())],
        "raw_pass_s": [sum(session.op_s)],
        "attempted": attempted,
        "failed": min(len(mismatches), attempted),
        "problems": (problems + mismatches)[:10],
        "checked": sum(r["checked"] for r in records),
        "rss_mb": peak_rss_mb(),
    }


def run_queries(seed: int, lib, posets, session: Session, seconds: float,
                blocks: int) -> dict:
    rng = random.Random(seed)
    block_at, block_s, problems = [], [], []
    rss_mb = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        ops = workloads.query_block(rng, lib, posets)
        session.meter.sample(1)
        answers = []
        block_at.append(time.perf_counter())
        for op in ops:
            answers.append(session.run(op))
        block_s.append(time.perf_counter() - block_at[-1])
        if len(block_s) == RSS_BLOCKS:
            rss_mb = peak_rss_mb()
        for op, (answer, error) in zip(ops, answers):
            attempted += 1
            verdict = workloads.judge(op, answer, error)
            if verdict:
                failed += 1
                if len(problems) < 10:
                    problems.append(verdict)
        if blocks:
            if len(block_s) >= blocks:
                break
        elif time.perf_counter() - start >= seconds:
            break
    session.meter.sample(1)
    return {
        "pass_s": [session.scaled(t, s) for t, s in zip(block_at, block_s)],
        "raw_pass_s": block_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "checked": 0,
        "rss_mb": rss_mb or peak_rss_mb(),
    }


def poset_sizes(lib, n: int) -> dict:
    p = lib.weakorder.cached_poset(n, jobs=1)
    relations = sum(bin(row).count("1") for row in p.reach) - len(p.nodes)
    return {"n": n, "nodes": len(p.nodes), "covers": len(p.covers),
            "relations": relations}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.BATTERIES, "queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--blocks", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    meter = SpeedMeter()
    meter.sample()  # set-up is scaled by the speed just before and after it
    sampling_s = sum(meter.seconds)  # taken off the set-up time
    package = import_library()
    lib = types.SimpleNamespace(**{m: getattr(package, m) for m in MODULES})
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(package)
    session = Session(tracer, meter)

    posets = None
    if args.workload == "queries":
        if tracer:
            tracer.active = True
        posets = workloads.setup_queries(lib)
        if tracer:
            tracer.active = False
    ready_at = time.monotonic()
    meter.sample()

    result: dict = {"ready_at": ready_at, "sampling_s": sampling_s,
                    "setup_scale": meter.overall()}
    if not args.probe:
        if args.workload == "queries":
            result.update(run_queries(args.seed, lib, posets, session,
                                      args.seconds, args.blocks))
        else:
            result.update(run_battery(args.workload, lib, session))
    else:
        result["rss_mb"] = peak_rss_mb()
    if not args.probe:
        result["op_s"] = session.scaled_ops()
        result["raw_op_s"] = list(session.op_s)
        result["scale"] = meter.overall()
    if tracer:
        result["trace"] = tracer.summary()
        result["trace"]["labels"] = session.labels
        builds = [s[4] for s in tracer.spans if s[0] == "weakorder.build_poset"]
        if builds:
            result["trace"]["top_poset"] = poset_sizes(lib, max(builds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
