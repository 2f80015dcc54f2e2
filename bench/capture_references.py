"""Capture the preset reference digests that the presets checks compare to.

    python3 bench/capture_references.py

Runs every preset at full and at smoke-test size through the `simulate`
entry point and writes bench/references.json.  Re-capture only when a
change is meant to alter the preset outputs, and say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

from run import RUNS, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    import ballistic.cli as cli
    from checks import REFERENCES, digest, reference_key
    from workloads import PRESET_NAMES, preset_case

    lines = []
    out = RUNS / "capture"
    for tiny in (False, True):
        for name in PRESET_NAMES:
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main([*preset_case(name, tiny).argv, "--out", str(out)])
            if status != 0:
                raise SystemExit(f"{name} (tiny={tiny}) exited {status}")
            for path in sorted(out.iterdir()):
                key = reference_key(name, tiny, path.name)
                lines.append(f"{json.dumps(key)}: {json.dumps(digest(path), sort_keys=True)}")
    shutil.rmtree(out, ignore_errors=True)
    # one output file per line keeps the file readable and its diffs small
    REFERENCES.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
