"""Self-test of the benchmark: each workload at a tiny scale, and each gate
shown to reject a corrupted answer.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import pathlib
import random
import shutil
import subprocess
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES  # noqa: E402
from worker import import_library  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    package = import_library()
    return types.SimpleNamespace(**{m: getattr(package, m) for m in MODULES})


@pytest.fixture(scope="module")
def posets(lib):
    return workloads.setup_queries(lib)


def run_bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# workloads at a tiny scale

def test_tiny_battery_matches_the_golden_reports(lib):
    golden = workloads.load_golden("desk")
    for op in workloads.battery_ops(lib, 4, 4):
        for report in op.call():
            assert gates.report_record(report) in golden, op.label


def test_queries_blocks_pass_their_gates(lib, posets):
    rng = random.Random(3)
    for _ in range(3):
        ops = workloads.query_block(rng, lib, posets)
        assert len(ops) == 30
        for op in ops:
            _, _, answer, error = workloads.run_op(op)
            assert workloads.judge(op, answer, error) is None, op.kind


def test_same_seed_gives_same_inputs(lib, posets):
    def kinds_and_answers(seed):
        ops = workloads.query_block(random.Random(seed), lib, posets)
        return [(op.kind, repr(workloads.run_op(op)[2:])) for op in ops]

    assert kinds_and_answers(5) == kinds_and_answers(5)
    assert kinds_and_answers(5) != kinds_and_answers(6)


def test_desk_and_queries_end_to_end():
    names = {m["name"] for m in SPEC["end_to_end"]}
    for workload in ("desk", "queries"):
        done = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", "0")
        assert done.returncode == 0, done.stderr
        result = last_json(done.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())
        record = json.loads(done.stdout.strip().splitlines()[-2])
        assert record["environment"]["jobs"] == 1 and record["environment"]["seed"] == 1
        # the raw figures and the scale that turned them into the metrics
        assert set(record["raw"]) == names | {"scale"}


def test_traced_counts_repeat_exactly():
    def counts():
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", "queries",
             "--seed", "2", "--blocks", "4", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        result = last_json(done.stdout)
        assert result["failed"] == 0
        return {k: v[0] for k, v in result["trace"]["functions"].items()}, result

    first, result = counts()
    second, _ = counts()
    assert first == second
    # the public boundary validates: at least one check per boundary call
    boundary = sum(first.get(f"tableau.{name}", 0)
                   for name in ("restrict", "evacuate", "transpose"))
    assert first["tableau.check_standard"] >= boundary > 0
    assert result["trace"]["top_poset"] == {
        "n": 8, "nodes": 764, "covers": 2498, "relations": 39023}


def test_per_layer_metric_names_match_the_spec():
    import run

    traced = {"checked": 0, "pass_s": [2.0], "scale": 1.0,
              "trace": {"functions": {}, "sizes": {},
                        "spans": [["weakorder.build_poset", 0.0, 1.0, -1, 3, 0.0]],
                        "top_poset": {"nodes": 4, "covers": 4, "relations": 5}}}
    metrics = run.layer_metrics(traced, {"pass_s": [1.0]})
    printed = set(metrics) - set(run.TRACE_FILE_ONLY)
    assert printed == {m["name"] for m in SPEC["per_layer"]}
    assert set(run.TRACE_FILE_ONLY) <= set(metrics)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "desk", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ---------------------------------------------------------------------------
# each gate rejects a corrupted answer

def _other_tableau(rows):
    return ((-1,) + rows[0][1:],) + rows[1:]


def corrupt(op, answer):
    kind = op.kind
    if kind == "rsk":
        word = gates.reverse_rsk(*answer)
        return gates.rsk((word[1], word[0]) + word[2:])
    if kind == "knuth_class":
        return types.SimpleNamespace(words=frozenset(sorted(answer.words)[1:]))
    if kind == "plactic_product":
        return types.SimpleNamespace(terms=dict(list(answer.terms.items())[1:]))
    if kind == "interval_product":
        return answer[:-1]
    if kind == "jdt":
        return types.SimpleNamespace(rows=answer.rows[::-1])
    return _other_tableau(answer)


def test_query_gates_reject_corrupted_answers(lib, posets):
    ops = workloads.query_block(random.Random(4), lib, posets)
    rejected = 0
    for op in ops:
        _, _, answer, error = workloads.run_op(op)
        if op.check is None:
            assert workloads.judge(op, None, None) is not None
            assert workloads.judge(op, None, TypeError("x")) is not None
            rejected += 1
        elif workloads.judge(op, corrupt(op, answer), None) is not None:
            rejected += 1
    # a product pair is compared once, when its second answer arrives
    pairs = sum(op.kind == "plactic_product" for op in ops)
    assert rejected == len(ops) - pairs


def test_query_gate_rejects_a_raised_error(lib, posets):
    ops = workloads.query_block(random.Random(4), lib, posets)
    op = next(op for op in ops if op.check is not None)
    assert workloads.judge(op, None, ValueError("boom")) is not None


def test_battery_gate_rejects_corrupted_reports():
    golden = workloads.load_golden("desk")
    assert gates.compare_battery(copy.deepcopy(golden), golden) == []

    def problems(edit):
        records = copy.deepcopy(golden)
        edit(records)
        return gates.compare_battery(records, golden)

    def find(records, check):
        return next(r for r in records if r["check"] == check)

    assert problems(lambda rs: rs.pop(3))  # a missing check
    assert problems(lambda rs: rs.append(copy.deepcopy(rs[0])))  # an extra one
    assert problems(lambda rs: rs[5].update(checked=rs[5]["checked"] + 1))
    assert problems(lambda rs: rs[5].update(violations=[{"S": "1"}]))
    assert problems(lambda rs: find(rs, "inner-translation-single-triple-failure")
                    ["details"]["witness"].update(S="1,2,3/4,5,6"))
    # a detail added later is allowed
    assert not problems(lambda rs: rs[0]["details"].update(phases_ms=1.0))
