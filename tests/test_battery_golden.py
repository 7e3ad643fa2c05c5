"""The verification battery, run as a user runs it, reproduces the golden
reports byte for byte (timings aside) and in their order: the default
battery and the ``--stretch`` one, which pins the n = 9 translation
counts."""

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden"


def _key(record):
    return record["check"] + " " + json.dumps(record["range"], sort_keys=True)


def _check_battery(tmp_path, flags, golden):
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verification.py"),
         *flags, "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.endswith("ALL PASS\n")

    records = json.loads((GOLDEN / golden).read_text())
    # one stdout line per report, in the golden list's order
    printed = [
        re.fullmatch(r"PASS (\S+) \[(.*)\] checked=(\d+)( skipped=\d+)? \(\d+ ms\)", line)
        .groups()[:3]
        for line in out.stdout.splitlines()[:-1]
    ]
    assert printed == [
        (
            record["check"],
            " ".join(f"{k}={v}" for k, v in sorted(record["range"].items())),
            str(record["checked"]),
        )
        for record in records
    ]

    want = {_key(record): record for record in records}
    # a report run twice (antisymmetry, alone and in the structural
    # bundle) is written to one file; its golden copies must agree
    assert all(want[_key(record)] == record for record in records)

    got = {}
    for path in sorted(tmp_path.glob("*.json")):
        record = json.loads(path.read_text())
        del record["elapsed_ms"]
        record.setdefault("skipped", 0)
        record.setdefault("details", {})
        got[_key(record)] = record
    assert got == want


def test_default_battery_matches_golden_reports(tmp_path):
    _check_battery(tmp_path, [], "desk.json")


def test_stretch_battery_matches_golden_reports(tmp_path):
    _check_battery(tmp_path, ["--stretch"], "stretch.json")
