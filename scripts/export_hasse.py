#!/usr/bin/env python3
"""Write the weak-order Hasse diagrams for n = 2..--max-n as DOT files.

Feed the output to graphviz, e.g. ``dot -Tpdf out/weak_order_syt_4.dot``.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from sytkit.cli import _integer  # noqa: E402
from sytkit.permutation import CAPS  # noqa: E402
from sytkit.weakorder import cached_poset, to_dot  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("out"))
    parser.add_argument("--max-n", type=_integer, default=5)
    args = parser.parse_args()
    if not (2 <= args.max_n <= CAPS["order"]):
        parser.error(f"--max-n must be in 2..{CAPS['order']}, got {args.max_n}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for n in range(2, args.max_n + 1):
        p = cached_poset(n)
        path = args.out_dir / f"weak_order_syt_{n}.dot"
        path.write_text(to_dot(p))
        print(f"{path}: {len(p.nodes)} nodes, {len(p.covers)} covers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
