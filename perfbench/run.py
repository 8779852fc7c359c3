"""deskclip benchmark: one workload, one seed, one measured run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-mini-b64 --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced run, and the spans are written under ``.perfbench-out/``.
The exit code is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True, help="seed of the generated corpus")
    p.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy shrinks models and corpora for the smoke tests")
    return p.parse_args(argv)


def import_harness():
    """Import deskclip from this checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "deskclip"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no deskclip sources at {package}")
    for path in (str(ROOT / "src"), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import deskclip

    if Path(deskclip.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported deskclip from {deskclip.__file__}, not {package}")
    import harness
    import machine

    return harness, machine


def main(argv: list[str] | None = None, out_dir: Path | None = None) -> int:
    harness, machine = import_harness()
    args = parse_args(argv, list(harness.WORKLOADS))
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.scale, workdir, out_dir or ROOT / ".perfbench-out",
                             machine.fingerprint(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
