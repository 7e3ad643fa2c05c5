#!/usr/bin/env python3
"""Run the full verification battery and summarize one line per check.

Default scale is n <= 7 (seconds).  --stretch raises the translation sweep
and antisymmetry check to n = 9, which rebuilds the poset from all 362880
words (about 1.8 s in total with one process on a 2-vCPU machine under
Python 3.11; the default scale takes about 0.5 s).  JSON reports land in
--out-dir when given.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from sytkit import hopf, verify, weakorder  # noqa: E402


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
    parser.add_argument("--max-n", type=int, default=7, help="largest size swept")
    parser.add_argument(
        "--stretch",
        action="store_true",
        help="push the translation sweep and antisymmetry to n = 9",
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out-dir", type=pathlib.Path, default=None)
    args = parser.parse_args()

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    top = 9 if args.stretch else min(args.max_n, 7)
    ok = True

    for n in range(2, top + 1):
        ok &= emit(verify.verify_antisymmetry(n, jobs=args.jobs), args.out_dir)
    for n in range(2, top + 1):
        for mode in ("cover", "order"):
            ok &= emit(
                verify.verify_inner_tableau_translation(n, mode, jobs=args.jobs),
                args.out_dir,
            )
    ok &= emit(verify.verify_inner_translation_fails(jobs=args.jobs), args.out_dir)
    for family in ("two_row", "two_col", "hook"):
        for n in range(2, min(top, 8) + 1):
            ok &= emit(
                verify.verify_special_cases(n, family, jobs=args.jobs), args.out_dir
            )
    for k in range(5, min(top, 9) + 1):
        ok &= emit(verify.verify_hook_eta(k), args.out_dir)
    for n in range(2, min(args.max_n, 6) + 1):
        for report in verify.verify_structural(n, jobs=args.jobs):
            ok &= emit(report, args.out_dir)
    for n in range(2, min(args.max_n, 7) + 1):
        p = weakorder.cached_poset(n, jobs=args.jobs)
        ok &= emit(weakorder.check_monotone_descent(p), args.out_dir)
        ok &= emit(weakorder.check_monotone_shape(p), args.out_dir)
    for total in range(2, min(args.max_n, 6) + 1):
        for k in range(1, total):
            ok &= emit(
                hopf.verify_interval_isomorphism(k, total - k, jobs=args.jobs),
                args.out_dir,
            )

    print("ALL PASS" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
