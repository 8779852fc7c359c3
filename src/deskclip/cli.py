"""Command-line entry point: gen-data, train, eval, bench, ablate.

Every invocation writes into a fresh run directory under $DESKCLIP_RUNS
(default ./runs) containing the resolved flat config, step log or report,
and any checkpoints. Run directories are never reused.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .checkpoint import load_checkpoint
from .data import Corpus, CorpusSpec, generate_corpus, load_corpus
from .errors import DeskclipError, InputError
from .evaluation import evaluate
from .model import ClipModel
from .trainer import (
    TrainConfig,
    Trainer,
    bench,
    coerce,
    final_loss,
    format_ablation_table,
    init_from_checkpoint,
    run_ablation,
)

ENV_RUN_ROOT = "DESKCLIP_RUNS"


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment."""
    flat: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        flat[key.strip()] = value.strip()
    return flat


def format_config(flat: dict, overrides: list[str] | None = None) -> str:
    """Inverse of parse_config_file; rejects values it would not read back."""
    lines = []
    if overrides:
        lines.append("# overrides applied: " + " ".join(overrides))
    for key, value in sorted(flat.items()):
        text = str(value)
        if "#" in text or len(text.splitlines()) > 1 or text != text.strip():
            raise InputError(f"config key {key}: {value!r} cannot be written: '#', line break or outer space")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def apply_overrides(flat: dict, pairs: list[str]) -> dict:
    out = dict(flat)
    for pair in pairs:
        if "=" not in pair:
            raise InputError(f"override {pair!r} is not key=value")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def new_run_dir(command: str, root: str | Path | None = None) -> Path:
    base = Path(root if root is not None else os.environ.get(ENV_RUN_ROOT, "runs"))
    base.mkdir(parents=True, exist_ok=True)
    n = 0
    while True:
        candidate = base / f"{command}-{n:04d}"
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:
            n += 1


def _load_train_config(args) -> tuple[TrainConfig, str, Corpus]:
    flat = parse_config_file(args.config)
    flat = apply_overrides(flat, args.set or [])
    cfg = TrainConfig.from_flat(flat)
    if not cfg.data_manifest:
        raise InputError(f"config field data_manifest is required for {args.command}")
    return cfg, format_config(cfg.to_flat(), args.set), load_corpus(cfg.data_manifest)


def read_corpus_spec(path: str | Path) -> CorpusSpec:
    """A JSON object whose keys are CorpusSpec fields."""
    try:
        spec = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: corpus spec is not JSON ({err})") from None
    if not isinstance(spec, dict):
        raise InputError(f"{path}: corpus spec must be a JSON object of CorpusSpec fields")
    known = {f.name: f for f in fields(CorpusSpec)}
    for key in spec:
        if key not in known:
            raise InputError(f"{path}: unknown corpus spec key {key!r}; known keys: {sorted(known)}")
    for key, f in known.items():
        if key not in spec and f.default is MISSING:
            raise InputError(f"{path}: corpus spec key {key!r} is required")
    hints = get_type_hints(CorpusSpec)
    return CorpusSpec(**{key: _json_value(hints[key], value, f"{path}: corpus spec key {key!r}")
                         for key, value in spec.items()})


def _json_value(kind: type, value, what: str):
    """``value`` as a ``kind`` where converting changes nothing: "8" and 2.5 are no int."""
    if get_origin(kind) is tuple and isinstance(value, list):
        return tuple(_json_value(get_args(kind)[0], item, what) for item in value)
    out = coerce(kind, value, what)
    if out != value:
        raise InputError(f"{what}: {value!r} is not a valid {kind.__name__}")
    return out


def _cmd_gen_data(args) -> int:
    manifest = generate_corpus(read_corpus_spec(args.spec), args.out)
    corpus = load_corpus(manifest)
    print(f"wrote {len(corpus.train)} train / {len(corpus.heldout)} held-out records")
    print(f"manifest: {manifest}")
    return 0


def _cmd_train(args) -> int:
    cfg, resolved, corpus = _load_train_config(args)
    resume = load_checkpoint(args.resume) if args.resume else None
    # everything that can reject the run happens before its directory exists
    trainer = Trainer(cfg, corpus)
    if resume is not None:
        trainer.resume(resume)
        if trainer.schedule_step >= cfg.total_steps:
            raise InputError(f"{args.resume}: checkpoint is at step {trainer.schedule_step}, "
                             f"already at or past total_steps {cfg.total_steps}")
    run_dir = trainer.run_dir = new_run_dir("train", args.run_root)
    (run_dir / "resolved.cfg").write_text(resolved)
    if trainer.load_report is not None:
        print(f"initialization: {trainer.load_report.summary()}")
    if resume is not None:
        print(f"resumed at step {trainer.schedule_step}")
    final = trainer.train()
    print(f"run dir: {run_dir}")
    print(f"steps: {trainer.schedule_step}  samples seen: {trainer.samples_seen}")
    print(f"final loss (mean of last 10): {final_loss(trainer.records):.4f}")
    print(f"checkpoint: {final}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    if "config" not in ckpt.metadata:
        raise InputError(f"{args.ckpt}: checkpoint has no metadata key 'config' to build the model from")
    cfg = TrainConfig.from_flat(ckpt.metadata["config"])
    model = ClipModel.init(cfg.model, cfg.seed)
    report_load = init_from_checkpoint(model, ckpt)
    if report_load.missing:
        raise InputError(f"checkpoint is missing parameters: {report_load.missing[:5]} ...")
    manifest = args.data or cfg.data_manifest
    if not manifest:
        raise InputError("no data manifest: pass --data or use a checkpoint that records one")
    corpus = load_corpus(manifest)
    class_names = Path(args.classes).read_text().splitlines() if args.classes else None
    templates = Path(args.templates).read_text().splitlines() if args.templates else None
    if class_names is not None:
        class_names = [c for c in class_names if c.strip()]
    if templates is not None:
        templates = [t for t in templates if t.strip()]
    report = evaluate(model, corpus, templates=templates, class_names=class_names)
    run_dir = new_run_dir("eval", args.run_root)
    (run_dir / "report.json").write_text(report.to_json() + "\n")
    (run_dir / "report.txt").write_text(report.render_text())
    with open(run_dir / "report_rows.csv", "w") as f:
        f.write("benchmark,metric,value\n")
        for benchmark, metric, value in report.to_rows():
            f.write(f"{benchmark},{metric},{value:.1f}\n")
    print(report.render_text(), end="")
    print(f"report dir: {run_dir}")
    return 0


def _cmd_bench(args) -> int:
    cfg, resolved, corpus = _load_train_config(args)
    report = bench(cfg, corpus, steps=args.steps)
    run_dir = new_run_dir("bench", args.run_root)
    (run_dir / "resolved.cfg").write_text(resolved)
    (run_dir / "bench.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for label in ("unmasked", "masked"):
        row = report[label]
        print(f"{label:>9}: median step {row['median_step_seconds']:.4f}s "
              f"(IQR {row['iqr_step_seconds']:.4f}s)  "
              f"({row['seconds_per_1m_samples'] / 3600.0:.2f} h per 1M samples)")
    print(f"step-time ratio (masked / unmasked): {report['step_time_ratio']:.3f}")
    print(f"peak resident memory: {report['peak_rss_kb']} kB")
    print(f"report dir: {run_dir}")
    return 0


def _cmd_ablate(args) -> int:
    cfg, resolved, corpus = _load_train_config(args)
    run_dir = new_run_dir("ablate", args.run_root)
    (run_dir / "resolved.cfg").write_text(resolved)
    report = run_ablation(cfg, corpus, run_dir)
    print(format_ablation_table(report), end="")
    print(f"report dir: {run_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deskclip", description=__doc__)
    parser.add_argument("--run-root", default=None,
                        help=f"run-directory root (default ${ENV_RUN_ROOT} or ./runs)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic paired corpus")
    p.add_argument("--spec", required=True, help="JSON file of corpus parameters")
    p.add_argument("--out", required=True, help="output directory for shards + manifest")
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="run the contrastive training recipe")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--resume", default=None, help="checkpoint to continue bit-exactly")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="zero-shot evaluation of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--classes", default=None, help="file of class names, one per line")
    p.add_argument("--templates", default=None, help="file of prompt templates, one per line")
    p.add_argument("--data", default=None, help="corpus manifest (default: from checkpoint)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("bench", help="time train steps with masking on vs off")
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("ablate", help="run the four-arm recipe ablation")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=_cmd_ablate)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (DeskclipError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
