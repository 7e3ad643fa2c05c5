"""Record the golden reports that gate the desk and stretch batteries.

    python3 perfbench/record_golden.py

Run it only when a battery's expected output changes on purpose (a check
added or a count corrected), and say so in the change that commits the new
files: the benchmark fails any run whose reports differ from these.
"""

from __future__ import annotations

import json
import types

import gates
import workloads
from tracer import MODULES
from worker import import_library


def main() -> None:
    package = import_library()
    lib = types.SimpleNamespace(**{m: getattr(package, m) for m in MODULES})
    for name, (top, max_n) in workloads.BATTERIES.items():
        records = [
            gates.report_record(report)
            for op in workloads.battery_ops(lib, top, max_n)
            for report in op.call()
        ]
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: {len(records)} reports")


if __name__ == "__main__":
    main()
