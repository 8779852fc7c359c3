import io
import json
import math
import re
import string
from contextlib import redirect_stderr
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskclip.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from deskclip.cli import apply_overrides, format_config, new_run_dir, parse_config_file, run
from deskclip.encoders import ImageEncoderConfig, ModelConfig, TextEncoderConfig
from deskclip.errors import ContractError, DimensionError, InputError
from deskclip.model import preset
from deskclip.optim import OptimizerConfig
from deskclip.trainer import StepRecord, TrainConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus + config file shared by the CLI end-to-end tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = {
        "num_classes": 8,
        "samples_per_class": 6,
        "image_size": 32,
        "seed": 4,
        "caption_templates": ["a photo of a {}"],
    }
    (root / "corpus.json").write_text(json.dumps(spec))
    code = run(["gen-data", "--spec", str(root / "corpus.json"), "--out", str(root / "data")])
    assert code == 0

    cfg = TrainConfig(
        model=preset("tiny"),
        peak_lr_image=1e-3,
        peak_lr_text=1e-3,
        warmup_steps=4,
        total_steps=20,
        mask_ratio=0.0,
        batch_size=4,
        seed=2,
        data_manifest=str(root / "data" / "manifest.json"),
    )
    lines = [f"{k} = {v}" for k, v in sorted(cfg.to_flat().items())]
    (root / "train.cfg").write_text("\n".join(lines) + "\n")
    return root


def runs_under(root):
    return sorted(p for p in (root / "runs").iterdir() if p.is_dir())


class TestConfigFile:
    def test_parse_ignores_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\n\nalpha = 1\nbeta = two  # trailing\n")
        assert parse_config_file(p) == {"alpha": "1", "beta": "two"}

    def test_bad_line_names_location(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just words\n")
        from deskclip.errors import InputError

        with pytest.raises(InputError, match="c.cfg:1"):
            parse_config_file(p)

    def test_overrides_apply_after_parse(self):
        flat = {"a": "1", "b": "2"}
        out = apply_overrides(flat, ["b=3", "c = 4"])
        assert out == {"a": "1", "b": "3", "c": "4"}

    def test_format_round_trips(self, tmp_path):
        flat = {"alpha": "1", "beta": "x"}
        p = tmp_path / "f.cfg"
        p.write_text(format_config(flat, overrides=["beta=x"]))
        assert parse_config_file(p) == flat

    @pytest.mark.parametrize("value", ["data#2/manifest.json", "data\n2", " a b ", "a ", "data\x0c2"],
                             ids=["hash", "newline", "outer-spaces", "trailing-space", "form-feed"])
    def test_format_rejects_values_it_cannot_read_back(self, value):
        with pytest.raises(InputError, match="data_manifest"):
            format_config({"batch_size": 4, "data_manifest": value})

    def test_run_dirs_never_reused(self, tmp_path):
        a = new_run_dir("train", tmp_path)
        b = new_run_dir("train", tmp_path)
        assert a != b and a.exists() and b.exists()


def leaves(obj, path=()):
    """Yield ``(path, field, value)`` for every non-dataclass field below ``obj``."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from leaves(value, path + (f.name,))
        else:
            yield path + (f.name,), f, value


def keyed_leaves(cfg):
    """``(flat key, field, value)`` per leaf of ``cfg``: ``to_flat`` walks the
    fields in the same depth-first order as ``leaves``."""
    out = [(key, f, value) for key, (_, f, value) in zip(cfg.to_flat(), leaves(cfg))]
    assert all(key.endswith(f.name) for key, f, _ in out)
    return out


def interval(domain):
    """``(lo, lo open, hi, hi open)`` of an interval domain such as "(0, 1]"."""
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    return lo, domain[0] == "(", hi, domain[-1] == ")"


def inside(domain, kind):
    """Values of type ``kind`` in ``domain``; any value when it is None."""
    if isinstance(domain, tuple):
        return st.sampled_from(domain)
    if domain is None:
        return st.booleans() if kind is bool else st.text()
    lo, lo_open, hi, hi_open = interval(domain)
    if kind is int:  # every int domain is [lo, inf)
        return st.integers(min_value=int(lo))
    return st.floats(min_value=lo, max_value=hi if hi < math.inf else None, exclude_min=lo_open,
                     exclude_max=hi_open and hi < math.inf, allow_nan=False, allow_infinity=False)


def just_outside(domain, kind):
    """Values of type ``kind`` just past an end of ``domain``, NaN, or an unknown choice."""
    if isinstance(domain, tuple):
        return st.text(string.ascii_lowercase + "-", min_size=1).filter(lambda w: w not in domain)
    lo, lo_open, hi, hi_open = interval(domain)
    if kind is int:
        return st.just(int(lo) - 1)
    below = lo if lo_open else math.nextafter(lo, -math.inf)
    above = hi if hi_open else math.nextafter(hi, math.inf)
    return st.sampled_from([below, above, math.nan])


class TestConfigSchema:
    # every leaf off its default, so a field the flat form drops cannot go unseen
    OFF_DEFAULT = TrainConfig(
        model=ModelConfig(
            image=ImageEncoderConfig(layers=3, width=48, heads=3, image_size=24, patch_size=6,
                                     channels=1, drop_path=0.125),
            text=TextEncoderConfig(layers=1, width=40, heads=5, vocab_size=300, context_length=20),
            embed_dim=24,
        ),
        optimizer=OptimizerConfig(kind="adamw", beta1=0.85, beta2=0.995, eps=1e-8,
                                  weight_decay=0.1),
        peak_lr_image=3e-4, peak_lr_text=7e-5, layer_decay_image=0.65, layer_decay_text=0.85,
        schedule_shape="linear", warmup_steps=7, total_steps=70, mask_ratio=0.25,
        batch_size=16, seed=11, init_policy="both-from-checkpoint",
        init_checkpoint="runs/pre/final.bin", init_strict=True, augment=False,
        crop_scale_lo=0.8, crop_scale_hi=0.95, checkpoint_interval=5, scale_init=1024.0,
        scale_growth_interval=50, data_manifest="data/manifest.json",
    )

    def test_example_sets_every_leaf_off_its_default(self):
        off = [path for path, f, value in leaves(self.OFF_DEFAULT)
               if f.default is MISSING or value != f.default]
        assert off == [path for path, _, _ in leaves(self.OFF_DEFAULT)]
        assert len(self.OFF_DEFAULT.to_flat()) == len(off)

    def test_flat_round_trip(self):
        flat = self.OFF_DEFAULT.to_flat()
        assert sorted(flat) == sorted(parse_config_file(CONFIG_DIR / "train-mini.cfg"))
        assert TrainConfig.from_flat(flat) == self.OFF_DEFAULT

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "off.cfg"
        path.write_text(format_config(self.OFF_DEFAULT.to_flat()))
        assert TrainConfig.from_flat(parse_config_file(path)) == self.OFF_DEFAULT

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_committed_configs_are_canonical(self, name):
        text = (CONFIG_DIR / name).read_text()
        cfg = TrainConfig.from_flat(parse_config_file(CONFIG_DIR / name))
        body = [line for line in text.splitlines() if not line.startswith("#")]
        assert body == format_config(cfg.to_flat()).splitlines()

    def test_every_leaf_but_flags_and_paths_declares_a_domain(self):
        free = [key for key, f, _ in keyed_leaves(self.OFF_DEFAULT) if "domain" not in f.metadata]
        assert sorted(free) == ["augment", "data_manifest", "init_checkpoint", "init_strict"]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_drawn_config_round_trips_or_is_refused_by_key(self, tmp_path_factory, data):
        leaves_by_key = {key: (f, value) for key, f, value in keyed_leaves(self.OFF_DEFAULT)}
        drawn = data.draw(st.lists(st.sampled_from(sorted(leaves_by_key)), max_size=4, unique=True))
        flat = self.OFF_DEFAULT.to_flat()
        for key in drawn:
            f, value = leaves_by_key[key]
            flat[key] = data.draw(inside(f.metadata.get("domain"), type(value)), label=key)
        try:
            cfg = TrainConfig.from_flat(flat)
        except (ContractError, DimensionError) as err:  # the draw broke a relation between two keys
            assert re.search(r" (is not divisible by|exceeds) \w+ ", str(err))
            return
        try:
            text = format_config(cfg.to_flat())
        except InputError as err:
            key = re.match(r"config key (\w+):", str(err)).group(1)
            assert key in drawn and isinstance(flat[key], str)
            return
        path = tmp_path_factory.getbasetemp() / "drawn.cfg"
        path.write_text(text)
        assert TrainConfig.from_flat(parse_config_file(path)) == cfg


class TestEndToEnd:
    def test_gen_train_eval_pipeline(self, workspace):
        code = run(["--run-root", str(workspace / "runs"), "train",
                    "--config", str(workspace / "train.cfg")])
        assert code == 0
        run_dir = [p for p in runs_under(workspace) if p.name.startswith("train-")][0]
        assert (run_dir / "resolved.cfg").exists()
        assert (run_dir / "final.bin").exists()
        lines = (run_dir / "steps.jsonl").read_text().strip().splitlines()
        assert len(lines) == 20

        code = run(["--run-root", str(workspace / "runs"), "eval",
                    "--ckpt", str(run_dir / "final.bin")])
        assert code == 0
        eval_dir = [p for p in runs_under(workspace) if p.name.startswith("eval-")][0]
        report = json.loads((eval_dir / "report.json").read_text())
        assert report["schema_version"] == 1
        assert "heldout" in report["benchmarks"]
        assert "delta_gap" in report
        rows = (eval_dir / "report_rows.csv").read_text().strip().splitlines()
        assert rows[0] == "benchmark,metric,value"
        assert len(rows) > 5

    def test_overrides_echoed_into_resolved_config(self, workspace):
        code = run(["--run-root", str(workspace / "runs2"), "train",
                    "--config", str(workspace / "train.cfg"),
                    "--set", "total_steps=6", "--set", "warmup_steps=2"])
        assert code == 0
        run_dir = sorted((workspace / "runs2").iterdir())[0]
        text = (run_dir / "resolved.cfg").read_text()
        assert "total_steps = 6" in text
        assert "# overrides applied: total_steps=6 warmup_steps=2" in text
        resolved = parse_config_file(run_dir / "resolved.cfg")
        assert TrainConfig.from_flat(resolved).total_steps == 6

    def test_rerun_with_resolved_config_reproduces_step_log(self, workspace):
        args = ["--run-root", str(workspace / "runs3"), "train",
                "--config", str(workspace / "train.cfg"), "--set", "total_steps=8"]
        assert run(args) == 0
        first = sorted((workspace / "runs3").iterdir())[0]
        assert run(["--run-root", str(workspace / "runs3"), "train",
                    "--config", str(first / "resolved.cfg")]) == 0
        second = sorted((workspace / "runs3").iterdir())[1]

        def stable(path):
            out = []
            for line in (path / "steps.jsonl").read_text().strip().splitlines():
                rec = json.loads(line)
                rec.pop("wall_time")  # the only nondeterministic field
                out.append(rec)
            return out

        assert stable(first) == stable(second)

    def test_resume_continues_bit_exactly(self, workspace):
        root = workspace / "runs4"
        assert run(["--run-root", str(root), "train",
                    "--config", str(workspace / "train.cfg"), "--set", "total_steps=12",
                    "--set", "checkpoint_interval=6"]) == 0
        full = sorted(root.iterdir())[0]
        assert run(["--run-root", str(root), "train",
                    "--config", str(full / "resolved.cfg"),
                    "--resume", str(full / "ckpt-000006.bin")]) == 0
        resumed = sorted(root.iterdir())[1]

        full_log = [StepRecord.from_json(l) for l in (full / "steps.jsonl").read_text().splitlines()]
        resumed_log = [StepRecord.from_json(l) for l in (resumed / "steps.jsonl").read_text().splitlines()]
        tail = [(r.step, r.loss) for r in full_log[6:]]
        cont = [(r.step, r.loss) for r in resumed_log]
        assert tail == cont
        assert (full / "final.bin").read_bytes() == (resumed / "final.bin").read_bytes()

    def test_unknown_flag_exits_nonzero(self, workspace, capsys):
        assert run(["train", "--bogus", "x"]) != 0

    def test_unreadable_config_exits_nonzero(self, workspace):
        assert run(["train", "--config", "/nonexistent/path.cfg"]) != 0

    @pytest.mark.parametrize("pair", ["batch_size=0", "warmup_steps=500", "mask_ratio=1.0",
                                      "schedule_shape=step", "crop_scale_lo=0",
                                      "checkpoint_interval=-1", "scale_growth_interval=0",
                                      "image_heads=0", "image_patch_size=0", "text_heads=0", "seed=-1",
                                      "text_context_length=1", "image_drop_path=1.0",
                                      "image_drop_path=-0.1", "scale_init=0", "scale_init=-1",
                                      "scale_init=inf", "peak_lr_text=nan", "peak_lr_image=-1",
                                      "peak_lr_image=inf", "warmup_steps=-3",
                                      "layer_decay_image=0", "layer_decay_text=1.5",
                                      "layer_decay_text=nan", "image_layers=-1", "text_layers=-1",
                                      "embed_dim=-5", "image_width=0", "text_width=0",
                                      "image_channels=1", "image_size=16", "beta1=1.0",
                                      "optimizer_eps=0", "weight_decay=-1", "image_width=65",
                                      "image_size=30", "warmup_steps=0 total_steps=0",
                                      "text_vocab_size=0"])
    def test_invariant_violation_names_field(self, workspace, tmp_path, capsys, pair):
        # rejected before a run directory exists, naming the last pair's key
        # (65 is not a multiple of the tiny preset's 2 image heads)
        sets = [arg for p in pair.split() for arg in ("--set", p)]
        code = run(["--run-root", str(tmp_path / "runs"), "train",
                    "--config", str(workspace / "train.cfg"), *sets])
        assert code == 2
        assert f"config key {pair.split()[-1].split('=')[0]}:" in capsys.readouterr().err
        assert list((tmp_path / "runs").glob("train-*")) == []

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_value_just_outside_its_domain_names_the_key(self, workspace, data):
        flat = parse_config_file(workspace / "train.cfg")
        declared = [(key, f.metadata["domain"], type(value))
                    for key, f, value in keyed_leaves(TrainConfig.from_flat(flat))
                    if "domain" in f.metadata]
        key, domain, kind = data.draw(st.sampled_from(declared), label="leaf")
        value = data.draw(just_outside(domain, kind), label="value")
        with pytest.raises((ContractError, DimensionError), match=rf"^config key {key}: "):
            TrainConfig.from_flat({**flat, key: str(value)})
        if data.draw(st.integers(0, 4), label="through train") == 0:
            root, err = workspace / "runs-outside", io.StringIO()
            with redirect_stderr(err):
                code = run(["--run-root", str(root), "train", "--config", str(workspace / "train.cfg"),
                            "--set", f"{key}={value}"])
            assert code == 2 and err.getvalue().startswith(f"error: config key {key}: ")
            assert list(root.glob("train-*")) == []

    def test_unwritable_config_leaves_no_run_dir(self, workspace, tmp_path, capsys):
        (tmp_path / "data#2").symlink_to(workspace / "data")
        code = run(["--run-root", str(tmp_path / "runs"), "train",
                    "--config", str(workspace / "train.cfg"),
                    "--set", f"data_manifest={tmp_path / 'data#2' / 'manifest.json'}"])
        assert code == 2
        assert "data_manifest" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key, value, match", [
        ("batch_size", "abc", "not a valid int"),
        ("augment", "flase", "not a boolean"),
        ("image_layers", None, "is required"),
    ], ids=["non-numeric", "unknown-boolean", "missing-required"])
    def test_bad_config_value_names_key(self, workspace, tmp_path, capsys, key, value, match):
        flat = parse_config_file(workspace / "train.cfg")
        if value is None:
            del flat[key]
        else:
            flat[key] = value
        with pytest.raises(InputError, match=f"{key}.*{match}"):
            TrainConfig.from_flat(flat)
        path = tmp_path / "bad.cfg"
        path.write_text(format_config(flat))
        code = run(["--run-root", str(tmp_path / "runs"), "train", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "runs").exists()


class TestBench:
    def test_bench_reports_both_arms(self, workspace, tmp_path, capsys):
        code = run(["--run-root", str(tmp_path / "runs"), "bench",
                    "--config", str(workspace / "train.cfg"), "--steps", "2"])
        assert code == 0
        out = capsys.readouterr().out
        (run_dir,) = runs_under(tmp_path)
        report = json.loads((run_dir / "bench.json").read_text())
        for label in ("unmasked", "masked"):
            row = report[label]
            assert row["q1_step_seconds"] <= row["median_step_seconds"] <= row["q3_step_seconds"]
            assert f"{label:>9}: median step {row['median_step_seconds']:.4f}s " \
                   f"(IQR {row['iqr_step_seconds']:.4f}s)" in out
        assert report["step_time_ratio"] > 0
        assert f"report dir: {run_dir}" in out


@pytest.fixture(scope="module")
def trained(workspace):
    """A two-step checkpoint of the workspace config."""
    root = workspace / "runs-rejected"
    assert run(["--run-root", str(root), "train", "--config", str(workspace / "train.cfg"),
                "--set", "total_steps=2", "--set", "warmup_steps=1"]) == 0
    return load_checkpoint(next(root.iterdir()) / "final.bin")


class TestRejectedInputs:
    @pytest.mark.parametrize("text, match", [
        ('{"num_classes": 8, "samples_per_class": 2, "colour": 1}', "unknown corpus spec key 'colour'"),
        ('{"samples_per_class": 2}', "corpus spec key 'num_classes' is required"),
        ('{"num_classes": 8,', "corpus spec is not JSON"),
        ('[8, 2]', "must be a JSON object"),
        ('{"num_classes": "8", "samples_per_class": 2}', "corpus spec key 'num_classes': '8'"),
        ('{"num_classes": 8, "samples_per_class": 2.5}', "corpus spec key 'samples_per_class': 2.5"),
        ('{"num_classes": 8, "samples_per_class": 2, "caption_templates": "a {}"}',
         "corpus spec key 'caption_templates': 'a {}'"),
        ('{"num_classes": 1, "samples_per_class": 2}', "corpus spec key 'num_classes': 1 is not in [2, 4096]"),
        ('{"num_classes": 8, "samples_per_class": 2, "image_size": 0}',
         "corpus spec key 'image_size': 0 is not in [1, inf)"),
        ('{"num_classes": 8, "samples_per_class": 2, "caption_templates": ["{} {}"]}',
         "corpus spec key 'caption_templates': prompt template '{} {}' does not take one positional"),
        ('{"num_classes": 8, "samples_per_class": 2, "caption_templates": ["{x}"]}',
         "corpus spec key 'caption_templates': prompt template '{x}' does not take one positional"),
        ('{"num_classes": 8, "samples_per_class": 2, "caption_templates": []}',
         "corpus spec key 'caption_templates': need at least one prompt template"),
        ('{"num_classes": 4097, "samples_per_class": 2}',
         "corpus spec key 'num_classes': 4097 is not in [2, 4096]"),
    ], ids=["unknown-key", "missing-key", "not-json", "not-object", "string-count", "fractional-count",
            "templates-not-a-list", "one-class", "zero-image-size", "template-two-fields",
            "template-named-field", "no-templates", "too-many-classes"])
    def test_bad_corpus_spec_names_file_and_key(self, tmp_path, capsys, text, match):
        (tmp_path / "spec.json").write_text(text)
        code = run(["gen-data", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "spec.json" in err and match in err
        assert not (tmp_path / "data").exists()

    def test_manifest_missing_key_exits_2(self, workspace, tmp_path, capsys):
        manifest = json.loads((workspace / "data" / "manifest.json").read_text())
        del manifest["channels"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        code = run(["--run-root", str(tmp_path / "runs"), "train",
                    "--config", str(workspace / "train.cfg"),
                    "--set", f"data_manifest={tmp_path / 'manifest.json'}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "manifest.json" in err and "'channels'" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("template", ["a {x} photo", "a {} {}"])
    def test_eval_rejects_template_without_one_positional_field(self, trained, tmp_path, capsys,
                                                                template):
        save_checkpoint(tmp_path / "model.bin", trained)
        (tmp_path / "templates.txt").write_text(f"a photo of a {{}}\n{template}\n")
        code = run(["--run-root", str(tmp_path / "runs"), "eval", "--ckpt", str(tmp_path / "model.bin"),
                    "--templates", str(tmp_path / "templates.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(template) in err
        assert list((tmp_path / "runs").glob("eval-*")) == []

    def test_eval_rejects_a_blank_templates_file(self, trained, tmp_path, capsys):
        save_checkpoint(tmp_path / "model.bin", trained)
        (tmp_path / "blank.txt").write_text("\n  \n")
        code = run(["--run-root", str(tmp_path / "runs"), "eval", "--ckpt", str(tmp_path / "model.bin"),
                    "--templates", str(tmp_path / "blank.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "template" in err
        assert list((tmp_path / "runs").glob("eval-*")) == []


class TestRejectedCheckpoints:
    @pytest.mark.parametrize("table, drop, entry", [
        ("optimizer", None, "m/image.patch_embed.weight"),
        ("tensors", "text.proj", "text.proj"),
        ("metadata", "rng_state", "rng_state"),
    ], ids=["no-optimizer-table", "missing-tensor", "missing-metadata-key"])
    def test_resume_names_missing_entry(self, workspace, trained, tmp_path, capsys, table, drop, entry):
        tables = {"tensors": dict(trained.tensors), "optimizer": dict(trained.optimizer),
                  "metadata": dict(trained.metadata)}
        if drop is None:
            tables[table].clear()
        else:
            del tables[table][drop]
        save_checkpoint(tmp_path / "partial.bin", Checkpoint(**tables))
        code = run(["--run-root", str(tmp_path / "runs"), "train",
                    "--config", str(workspace / "train.cfg"),
                    "--resume", str(tmp_path / "partial.bin")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(entry) in err
        assert list((tmp_path / "runs").glob("train-*")) == []

    def test_resume_at_or_past_total_steps_is_rejected(self, workspace, trained, tmp_path, capsys):
        save_checkpoint(tmp_path / "final.bin", trained)  # written at step 2
        code = run(["--run-root", str(tmp_path / "runs"), "train",
                    "--config", str(workspace / "train.cfg"), "--set", "total_steps=1",
                    "--set", "warmup_steps=0", "--resume", str(tmp_path / "final.bin")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "step 2" in err and "total_steps 1" in err
        assert list((tmp_path / "runs").glob("train-*")) == []

    def test_missing_init_checkpoint_leaves_no_run_dir(self, workspace, tmp_path, capsys):
        code = run(["--run-root", str(tmp_path / "runs"), "train",
                    "--config", str(workspace / "train.cfg"),
                    "--set", "init_policy=both-from-checkpoint",
                    "--set", f"init_checkpoint={tmp_path / 'absent.bin'}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.bin" in err
        assert list((tmp_path / "runs").glob("train-*")) == []

    @pytest.mark.parametrize("key, value", [("batch_size", 2.5), ("seed", True), ("batch_size", math.inf)])
    def test_eval_refuses_a_config_value_that_is_not_its_kind(self, trained, tmp_path, capsys, key, value):
        metadata = {**trained.metadata, "config": {**trained.metadata["config"], key: value}}
        save_checkpoint(tmp_path / "typed.bin", Checkpoint(trained.tensors, trained.optimizer, metadata))
        code = run(["--run-root", str(tmp_path / "runs"), "eval", "--ckpt", str(tmp_path / "typed.bin")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"config key {key}: {value!r} is not a valid int" in err
        assert list((tmp_path / "runs").glob("eval-*")) == []

    def test_eval_names_missing_config(self, trained, tmp_path, capsys):
        save_checkpoint(tmp_path / "bare.bin", Checkpoint(trained.tensors, trained.optimizer, {}))
        code = run(["--run-root", str(tmp_path / "runs"), "eval", "--ckpt", str(tmp_path / "bare.bin")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'config'" in err
        assert list((tmp_path / "runs").glob("eval-*")) == []
