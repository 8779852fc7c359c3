"""The benchmark's hook points into deskclip, checked without running a workload.

``perfbench/harness.py`` imports every deskclip name the benchmark uses, and
tracing rebinds each ``(owner, attribute)`` of ``tracing.layer_targets()``,
which must be the owner's own attribute. A change that renames or deletes one
of them breaks the benchmark; these tests catch that in the main suite.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

harness, _ = run.import_harness()
import tracing  # noqa: E402  (importable once import_harness has set the path)


def test_harness_defines_every_declared_workload():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(harness.WORKLOADS) == sorted(w["name"] for w in declared)


def test_every_layer_target_is_an_attribute_of_its_owner():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.layer_targets() if attr not in vars(owner)]
    assert missing == []
