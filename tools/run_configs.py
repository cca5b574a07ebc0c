"""Run every shipped config through the CLI of one source tree.

    python3 tools/run_configs.py SRC_DIR OUT_DIR

Each of configs/*.json and configs/acceptance/*.json (next to this
script's directory) runs as `python3 -m sparsedom.cli <kind> --config <file>
--out out` with PYTHONPATH=SRC_DIR, from its own directory
OUT_DIR/<config path without .json>.  That directory receives the output
tree `out/` and the files `stdout`, `stderr` and `exit`.  Running the script
on two source trees (say a `git archive` of a parent commit's `src/` and
the working tree's) and comparing the results with `diff -r` shows whether
a change kept every report, table, message and exit code byte for byte.
The script imports nothing from the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src, out_root = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    paths = sorted(CONFIGS.glob("*.json")) + \
        sorted(CONFIGS.glob("acceptance/*.json"))
    for path in paths:
        kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
        run_dir = out_root / path.relative_to(CONFIGS).with_suffix("")
        run_dir.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, "-m", "sparsedom.cli", kind, "--config",
             str(path), "--out", "out"],
            cwd=run_dir, env=env, capture_output=True)
        (run_dir / "stdout").write_bytes(done.stdout)
        (run_dir / "stderr").write_bytes(done.stderr)
        (run_dir / "exit").write_text(f"{done.returncode}\n")
        print(f"{path.relative_to(CONFIGS)}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
