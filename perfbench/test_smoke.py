"""Benchmark smoke tests at toy sizes:  python3 -m pytest perfbench"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

harness, _ = run.import_harness()
import tracing  # noqa: E402  (importable once import_harness has set the path)
WORKLOADS = list(harness.WORKLOADS)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy_args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "0", "--seconds", "0.5",
            "--trace", str(trace), "--scale", "toy"]


def deskclip_callables() -> dict[str, object]:
    """Every function and method reachable as a deskclip module or class attribute."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "deskclip" or mod_name.startswith("deskclip.")):
            continue
        for attr, value in vars(mod).items():
            if inspect.isclass(value):
                for meth, fn in vars(value).items():
                    if callable(fn):
                        found[f"{mod_name}.{attr}.{meth}"] = fn
            elif callable(value):
                found[f"{mod_name}.{attr}"] = value
    return found


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace, capsys, tmp_path):
    assert run.main(toy_args(workload, trace), out_dir=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(ln.startswith(f"metric {name} ") and ln.endswith(f" {unit}") for ln in lines)
    assert any(ln.startswith("fingerprint ") for ln in lines)
    assert (tmp_path / f"trace-{workload}-seed0.json").exists() == bool(trace)


def test_untraced_run_leaves_deskclip_unwrapped(monkeypatch, capsys, tmp_path):
    before = deskclip_callables()

    def refuse(self):
        raise AssertionError("an untraced run installed span wrappers")

    monkeypatch.setattr(tracing.Rebinding, "__enter__", refuse)
    for workload in WORKLOADS:
        assert run.main(toy_args(workload, 0), out_dir=tmp_path) == 0
    assert deskclip_callables() == before


def test_traced_run_restores_deskclip(capsys, tmp_path):
    before = deskclip_callables()
    assert run.main(toy_args("smallbatch-ckpt", 1), out_dir=tmp_path) == 0
    assert deskclip_callables() == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", *toy_args("eval-zeroshot", 0)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
