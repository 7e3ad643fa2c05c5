#!/usr/bin/env python3
"""Run the full verification battery and summarize one line per check.

Each entry of ``sytkit.verify.battery`` runs one option set of a row of
``sytkit.verify.CHECKS``, the table behind ``sytkit verify``, from the
row's lowest n (but not below 2) up to its top at the chosen scale.  The
default scale reaches n <= 7 (about 0.08 s).  --stretch raises the checks
whose stretch top is higher, as its help lists from the table: the
translation sweep, antisymmetry and hook-eta from n = 7 to n = 9 and
special-cases from n = 7 to n = 8, with the poset on 2620 tableaux (about
0.16 s).  Both times are wall clock, interpreter start included, on a
2-vCPU Xeon under Python 3.11.  JSON reports land in --out-dir when given.
Exits 1 when a check fails.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from sytkit import verify  # noqa: E402


def emit(report, out_dir):
    status = "PASS" if report.passed else "FAIL"
    scope = " ".join(f"{k}={v}" for k, v in sorted(report.range.items()))
    extra = f" skipped={report.skipped}" if report.skipped else ""
    print(
        f"{status} {report.check} [{scope}] checked={report.checked}{extra} "
        f"({report.elapsed_ms:.0f} ms)"
    )
    if not report.passed:
        for witness in report.violations[:5]:
            print("    witness:", json.dumps(witness, sort_keys=True))
    if out_dir is not None:
        scope_tag = "-".join(f"{k}{v}" for k, v in sorted(report.range.items()))
        path = out_dir / f"{report.check}-{scope_tag}.json"
        path.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return report.passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    raised = [f"{check} from n = {row.top} to {row.stretch_top}"
              for check, row in verify.CHECKS.items() if row.stretch_top > row.top]
    parser.add_argument("--stretch", action="store_true", help="raise " + ", ".join(raised))
    parser.add_argument("--out-dir", type=pathlib.Path, default=None)
    args = parser.parse_args()

    if args.out_dir is not None:
        try:
            args.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            parser.error(f"cannot use --out-dir: {exc}")

    ok = True
    for name, options in verify.battery(args.stretch):
        for report in verify.CHECKS[name].run(**options):
            ok &= emit(report, args.out_dir)

    print("ALL PASS" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
