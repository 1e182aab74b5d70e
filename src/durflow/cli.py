"""Command-line entry point: corpus generation, training, sampling, evaluation.

Subcommands:

  gen     write train/val corpus files for one style and seed
  train   fit a duration model on a corpus file, save checkpoint + loss log
  sample  draw duration realisations for every sentence of a corpus
  eval    produce residual.csv, dist.csv and bench.csv for two checkpoints

Settings resolve in three layers: built-in defaults, then a --config
file (flat key=value lines), then explicit flags. The resolved
configuration is echoed to the output directory, with the thread
settings that results depend on, so a run can be reproduced from its
artifacts alone.

Exit codes: 0 success, 1 usage error, 2 runtime failure. Failures print
a single "error: ..." line on standard error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from durflow import numerics as nm
from durflow.data import CorpusSpec, DurationCorpus, STYLES, generate, load, save
from durflow.duration import MODEL_KINDS, DurationModel, SampleOptions, load_model, save_model
from durflow.encoder import FILLER_ID, PAUSE_ID
from durflow.evaluation import (
    MIN_STAT_TOKENS, bench_sampling, corpus_frames, declared_modes, dist_stats,
    frames_by_class, residual_vs_nfe, write_report,
)
from durflow.files import atomic_write
from durflow.training import train_model


@dataclass
class RunConfig:
    """Resolved settings for one command; every field has a default, and
    the sampling fields take theirs from SampleOptions."""

    style: str = "read"
    kind: str = "det"
    steps: int = 3000
    batch: int = 16
    lr: float = 1e-3
    nfe: int = SampleOptions.nfe
    temperature: float = SampleOptions.temperature
    min_duration: int = SampleOptions.min_duration
    seed: int = SampleOptions.seed
    out: str = "runs"

    def validate(self):
        if self.style not in STYLES:
            raise UsageError(f"style must be one of {'/'.join(STYLES)}, got {self.style!r}")
        if self.kind not in MODEL_KINDS:
            raise UsageError(f"kind must be one of {'/'.join(MODEL_KINDS)}, got {self.kind!r}")
        for name in ("steps", "batch"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1")
        if not 0 < self.lr < math.inf:
            raise UsageError(f"lr must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        try:
            self.sample_options()
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def sample_options(self) -> SampleOptions:
        return SampleOptions(nfe=self.nfe, temperature=self.temperature,
                             seed=self.seed, min_duration=self.min_duration)


class UsageError(ValueError):
    """Bad option or config value; maps to exit code 1."""


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def read_config_file(path) -> dict:
    """Parse flat key=value lines; # starts a comment; later keys win."""
    overrides = {}
    casts = {"str": str, "int": int, "float": float}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise UsageError(f"{path}: line {lineno}: unknown setting {key!r}")
        try:
            overrides[key] = casts[_FIELD_TYPES[key]](value)
        except ValueError:
            raise UsageError(
                f"{path}: line {lineno}: bad value {value!r} for {key}"
            )
    return overrides


def resolve_config(args) -> tuple:
    """Defaults, then config file, then explicit flags. Returns (config, provided)."""
    settings = {}
    if getattr(args, "config", None):
        settings.update(read_config_file(args.config))
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    config = RunConfig(**settings)
    config.validate()
    return config, frozenset(settings)


# thread settings that change training results in their last bits
# (OpenBLAS splits its products by thread); config.txt records them, and
# the thread count OpenBLAS actually runs on as blas_threads
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def echo_config(config: RunConfig, command: str, inputs: dict, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    lines = [f"command={command}"]
    lines += [f"{f.name}={getattr(config, f.name)}" for f in fields(RunConfig)]
    lines += [f"{key}={value}" for key, value in sorted(inputs.items())]
    lines += [f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES]
    threads = nm.blas_threads()
    lines.append(f"blas_threads={'unknown' if threads is None else threads}")
    with atomic_write(os.path.join(out_dir, "config.txt")) as fh:
        fh.write("\n".join(lines) + "\n")


def _load_corpus(path) -> DurationCorpus:
    if not os.path.exists(path):
        raise FileNotFoundError(f"corpus file not found: {path}")
    return load(path)


def _load_checkpoint(path) -> DurationModel:
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint not found: {path}")
    return load_model(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    config, _ = resolve_config(args)
    spec = CorpusSpec(style=config.style, seed=config.seed)
    echo_config(config, "gen", {}, config.out)
    for split in ("train", "val"):
        corpus = generate(spec, split)
        path = os.path.join(config.out, f"{split}.durcorpus")
        save(corpus, path)
        ids = np.concatenate([s.seq.ids for s in corpus.sentences])
        print(
            f"{split}: {len(corpus)} sentences, {ids.size} positions, "
            f"{int((ids == PAUSE_ID).sum())} pauses, "
            f"{int((ids == FILLER_ID).sum())} fillers -> {path}"
        )
    return 0


def cmd_train(args) -> int:
    config, _ = resolve_config(args)
    corpus = _load_corpus(args.corpus)
    echo_config(config, "train", {"corpus": args.corpus}, config.out)
    model = DurationModel(config.kind, corpus.spec.vocab_size, seed=config.seed)
    loss_path = os.path.join(config.out, f"loss-{config.kind}.csv")
    losses = train_model(model, corpus, config.steps, batch_size=config.batch,
                         lr=config.lr, seed=config.seed, loss_path=loss_path)
    ckpt = os.path.join(config.out, f"model-{config.kind}.npz")
    save_model(model, ckpt)
    head = float(np.mean(losses[: min(100, len(losses))]))
    tail = float(np.mean(losses[-min(100, len(losses)):]))
    print(f"trained {config.kind} for {config.steps} steps "
          f"(loss {head:.4f} -> {tail:.4f}) -> {ckpt}")
    return 0


def cmd_sample(args) -> int:
    config, provided = resolve_config(args)
    model = _load_checkpoint(args.checkpoint)
    if "kind" in provided and config.kind != model.kind:
        raise ValueError(
            f"checkpoint holds a '{model.kind}' model but kind={config.kind} requested"
        )
    corpus = _load_corpus(args.corpus)
    reps = args.reps if args.reps is not None else (5 if model.kind == "fm" else 1)
    if reps < 1:
        raise UsageError("reps must be >= 1")
    echo_config(config, "sample",
                {"checkpoint": args.checkpoint, "corpus": args.corpus,
                 "reps": reps}, config.out)
    frames = corpus_frames(model, corpus, config.sample_options(), reps)
    path = os.path.join(config.out, "durations.txt")
    with atomic_write(path) as fh:
        fh.write(
            f"#durations model={model.kind} nfe={config.nfe} "
            f"temperature={config.temperature!r} seed={config.seed} "
            f"min_duration={config.min_duration} reps={reps} "
            f"sentences={len(corpus)}\n"
        )
        for s in corpus.sentences:
            for rep in range(reps):
                row = " ".join(str(int(d)) for d in frames[s.sent_id][rep])
                fh.write(f"{s.sent_id} {rep} {row}\n")
    print(f"sampled {reps} realisation(s) x {len(corpus)} sentences -> {path}")
    return 0


def _eval_reps(corpus: DurationCorpus) -> int:
    """Realisations needed so every class clears the token floor."""
    counts = {}
    for s in corpus.sentences:
        for tok in s.seq.ids:
            counts[int(tok)] = counts.get(int(tok), 0) + 1
    return max(1, math.ceil(MIN_STAT_TOKENS / min(counts.values())))


def cmd_eval(args) -> int:
    config, _ = resolve_config(args)
    models = {"det": _load_checkpoint(args.det), "fm": _load_checkpoint(args.fm)}
    for kind, model in models.items():
        if model.kind != kind:
            raise ValueError(f"--{kind} points at a '{model.kind}' checkpoint")
    corpora = [_load_corpus(path) for path in args.corpus]
    # results are keyed by style, so a second corpus of one style would
    # overwrite the first's
    seen = {}
    for path, corpus in zip(args.corpus, corpora):
        style = corpus.spec.style
        if style in seen:
            raise UsageError(f"--corpus {seen[style]} and {path} are both style "
                             f"'{style}'; give one corpus per style")
        seen[style] = path
    echo_config(config, "eval",
                {"det": args.det, "fm": args.fm,
                 "corpus": ",".join(args.corpus)}, config.out)
    opts = config.sample_options()

    curve = None
    stats = {}
    for corpus in corpora:
        corpus_id = corpus.spec.style
        modes = declared_modes(corpus.spec)
        for kind, model in models.items():
            piece = residual_vs_nfe(model, corpus, opts=opts)
            curve = piece if curve is None else curve.merge(piece)
            reps = _eval_reps(corpus)
            frames = corpus_frames(model, corpus, opts, reps)
            pools = frames_by_class(corpus, frames)
            stats[(kind, corpus_id)] = dist_stats(pools, modes)
    bench = []
    for kind, model in models.items():
        bench += bench_sampling(model, corpora[0], nfe_list=(10, 20),
                                repetitions=3, opts=opts)
    write_report(curve, stats, bench, config.out)
    for name in ("residual.csv", "dist.csv", "bench.csv"):
        print(f"wrote {os.path.join(config.out, name)}")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value settings file")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="durflow", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a synthetic corpus")
    gen.add_argument("--style", choices=STYLES)
    _add_common(gen)
    gen.set_defaults(run=cmd_gen)

    train = commands.add_parser("train", help="train a duration model")
    train.add_argument("--corpus", required=True, help="corpus file from gen")
    train.add_argument("--kind", choices=MODEL_KINDS)
    train.add_argument("--steps", type=int)
    train.add_argument("--batch", type=int)
    train.add_argument("--lr", type=float)
    _add_common(train)
    train.set_defaults(run=cmd_train)

    sample = commands.add_parser("sample", help="sample durations for a corpus")
    sample.add_argument("--checkpoint", required=True)
    sample.add_argument("--corpus", required=True)
    sample.add_argument("--kind", choices=MODEL_KINDS)
    sample.add_argument("--nfe", type=int)
    sample.add_argument("--temperature", type=float)
    sample.add_argument("--min-duration", dest="min_duration", type=int,
                        choices=(0, 1))
    sample.add_argument("--reps", type=int)
    _add_common(sample)
    sample.set_defaults(run=cmd_sample)

    ev = commands.add_parser("eval", help="write the three report CSVs")
    ev.add_argument("--det", required=True, help="det checkpoint path")
    ev.add_argument("--fm", required=True, help="fm checkpoint path")
    ev.add_argument("--corpus", required=True, action="append",
                    help="validation corpus file; repeatable")
    ev.add_argument("--nfe", type=int)
    ev.add_argument("--temperature", type=float)
    ev.add_argument("--min-duration", dest="min_duration", type=int,
                    choices=(0, 1))
    _add_common(ev)
    ev.set_defaults(run=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.run(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, OSError, FloatingPointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
