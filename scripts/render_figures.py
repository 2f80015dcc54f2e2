#!/usr/bin/env python3
"""Run every built-in preset and write its outputs under one directory.

Usage:
    python scripts/render_figures.py [--out DIR] [--format csv,pgm] [--gamma G]

Each preset runs through `simulate` and lands in DIR/<preset>/ next to a
scenario.txt echo of the resolved configuration, so a directory produced
here can be re-run with `simulate DIR/<preset>/scenario.txt`.  The first
preset that fails stops the script with its `simulate` exit status.
"""

import argparse
import sys
import time
from pathlib import Path

from ballistic import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="figures", help="output root (default: figures)")
    parser.add_argument("--format", default="csv,pgm", help="comma list of csv,pgm")
    parser.add_argument("--gamma", type=float, default=1.0,
                        help="PGM brightness exponent, < 1 lifts faint fringes")
    args = parser.parse_args(argv)

    root = Path(args.out)
    for name in sorted(cli.PRESETS):
        started = time.perf_counter()
        status = cli.main([name, "--out", str(root / name), "--format", args.format,
                           "--gamma", str(args.gamma)])
        if status:
            return status
        print(f"{name}: {time.perf_counter() - started:.2f}s -> {root / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
