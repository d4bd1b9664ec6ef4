"""Record the program's outputs at the reference seed into reference.json.

Run from the root of a checkout, at a commit whose outputs are trusted::

    python3 perfbench/make_reference.py

The benchmark then checks every op at that seed against these values.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workloads  # noqa: E402


def main() -> int:
    workdir = ROOT / ".perfbench_out" / "reference-work"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(run.REFERENCE_SEED, workdir)
            wl.prepare()
            reference[name] = [wl.outcome(i, wl.op(i)) for i in range(len(wl.inputs))]
            print(f"{name}: {len(reference[name])} reference outputs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps({"seed": run.REFERENCE_SEED, **reference}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
