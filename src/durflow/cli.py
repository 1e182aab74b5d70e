"""Command-line entry point: corpus generation, training, sampling, evaluation.

Subcommands:

  gen     write train/val corpus files for one style and seed
  train   fit a duration model on a corpus file, save checkpoint + loss log
  sample  draw duration realisations for every sentence of a corpus
  eval    produce residual.csv, dist.csv and bench.csv for two checkpoints

Each command reads only the settings COMMAND_SETTINGS names for it: its
flags, its --config keys (flat key=value lines) and its config.txt lines.
They resolve as built-in defaults, then the config file, then flags. The
resolved settings are echoed to the output directory with the command's
inputs and the thread settings that results depend on, so a run can be
reproduced from its artifacts alone.

Exit codes: 0 success, 1 usage error, 2 runtime failure. Failures print
a single "error: ..." line on standard error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
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
from durflow.training import BATCH_SIZE, LEARNING_RATE, check_options, train_model


@dataclass
class RunConfig:
    """Resolved settings for one command; every field has a default, training
    and sampling fields take theirs from training and SampleOptions."""

    style: str = "read"
    kind: str = "det"
    steps: int = 3000
    batch: int = BATCH_SIZE
    lr: float = LEARNING_RATE
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
        try:
            check_options(self.steps, self.batch, self.lr)
            self.sample_options()
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def sample_options(self) -> SampleOptions:
        return SampleOptions(nfe=self.nfe, temperature=self.temperature,
                             seed=self.seed, min_duration=self.min_duration)


class UsageError(ValueError):
    """Bad option or config value; maps to exit code 1."""


# the RunConfig fields each command reads, in the order config.txt lists them
COMMAND_SETTINGS = {
    "gen": ("style", "seed", "out"),
    "train": ("kind", "steps", "batch", "lr", "seed", "out"),
    "sample": ("kind", "nfe", "temperature", "min_duration", "seed", "out"),
    "eval": ("nfe", "temperature", "min_duration", "seed", "out"),
}
_CASTS = {f.name: {"str": str, "int": int, "float": float}[f.type]
          for f in fields(RunConfig)}
_COMMENT = re.compile(r"(?:^|\s)#")


def read_config_file(path, command: str) -> dict:
    """Parse flat key=value lines that set the command's settings; later
    keys win. A # at the start of a line or after whitespace starts a
    comment, so a value such as a path may hold a #."""
    overrides = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(lines, 1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in COMMAND_SETTINGS[command]:
            raise UsageError(f"{path}: line {lineno}: {command} reads no setting {key!r}")
        try:
            overrides[key] = _CASTS[key](value)
        except ValueError:
            raise UsageError(
                f"{path}: line {lineno}: bad value {value!r} for {key}"
            )
    return overrides


def resolve_config(args) -> tuple:
    """Defaults, then config file, then explicit flags. Returns (config, provided)."""
    settings = {}
    if args.config:
        settings.update(read_config_file(args.config, args.command))
    for name in COMMAND_SETTINGS[args.command]:
        value = getattr(args, name)
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
    """Write config.txt into out_dir, which the command's other outputs
    made; a command calls this last, so a failed run leaves none."""
    lines = [f"command={command}"]
    lines += [f"{name}={getattr(config, name)}" for name in COMMAND_SETTINGS[command]]
    lines += [f"{key}={value}" for key, value in sorted(inputs.items())]
    lines += [f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES]
    threads = nm.blas_threads()
    lines.append(f"blas_threads={'unknown' if threads is None else threads}")
    with atomic_write(os.path.join(out_dir, "config.txt")) as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    config, _ = resolve_config(args)
    spec = CorpusSpec(style=config.style, seed=config.seed)
    os.makedirs(config.out, exist_ok=True)
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
    echo_config(config, "gen", {}, config.out)
    return 0


def cmd_train(args) -> int:
    config, _ = resolve_config(args)
    corpus = load(args.corpus)
    model = DurationModel(config.kind, corpus.spec.vocab_size, seed=config.seed)
    os.makedirs(config.out, exist_ok=True)
    loss_path = os.path.join(config.out, f"loss-{config.kind}.csv")
    losses = train_model(model, corpus, config.steps, batch_size=config.batch,
                         lr=config.lr, seed=config.seed, loss_path=loss_path)
    ckpt = os.path.join(config.out, f"model-{config.kind}.npz")
    save_model(model, ckpt)
    echo_config(config, "train", {"corpus": args.corpus}, config.out)
    head = float(np.mean(losses[: min(100, len(losses))]))
    tail = float(np.mean(losses[-min(100, len(losses)):]))
    print(f"trained {config.kind} for {config.steps} steps "
          f"(loss {head:.4f} -> {tail:.4f}) -> {ckpt}")
    return 0


def cmd_sample(args) -> int:
    config, provided = resolve_config(args)
    if args.reps is not None and args.reps < 1:
        raise UsageError("reps must be >= 1")
    model = load_model(args.checkpoint)
    if "kind" in provided and config.kind != model.kind:
        raise ValueError(
            f"checkpoint holds a '{model.kind}' model but kind={config.kind} requested"
        )
    config.kind = model.kind
    corpus = load(args.corpus)
    reps = args.reps if args.reps is not None else (5 if model.kind == "fm" else 1)
    check_vocabulary(args.corpus, corpus, args.checkpoint, model)
    frames = corpus_frames(model, corpus, config.sample_options(), reps)
    os.makedirs(config.out, exist_ok=True)
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
    echo_config(config, "sample",
                {"checkpoint": args.checkpoint, "corpus": args.corpus,
                 "reps": reps}, config.out)
    print(f"sampled {reps} realisation(s) x {len(corpus)} sentences -> {path}")
    return 0


def check_vocabulary(corpus_path, corpus: DurationCorpus, checkpoint_path,
                     model: DurationModel):
    """Raise ValueError naming both files if the corpus holds a token id
    outside the checkpoint's vocabulary."""
    top = max((int(s.seq.ids.max()) for s in corpus.sentences), default=-1)
    if top >= model.vocab_size:
        raise ValueError(f"{corpus_path}: token id {top} outside the vocabulary of "
                         f"size {model.vocab_size} of checkpoint {checkpoint_path}")


def _eval_reps(corpus: DurationCorpus) -> int:
    """Realisations needed so every class clears the token floor."""
    ids = np.concatenate([s.seq.ids for s in corpus.sentences])
    return max(1, math.ceil(MIN_STAT_TOKENS / np.unique(ids, return_counts=True)[1].min()))


def cmd_eval(args) -> int:
    config, _ = resolve_config(args)
    models = {"det": load_model(args.det), "fm": load_model(args.fm)}
    for kind, model in models.items():
        if model.kind != kind:
            raise ValueError(f"--{kind} points at a '{model.kind}' checkpoint")
    corpora = [load(path) for path in args.corpus]
    # results are keyed by style, so a second corpus of one style would
    # overwrite the first's
    seen = {}
    for path, corpus in zip(args.corpus, corpora):
        style = corpus.spec.style
        if style in seen:
            raise UsageError(f"--corpus {seen[style]} and {path} are both style "
                             f"'{style}'; give one corpus per style")
        seen[style] = path
        for kind, model in models.items():
            check_vocabulary(path, corpus, getattr(args, kind), model)
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
    echo_config(config, "eval",
                {"det": args.det, "fm": args.fm,
                 "corpus": ",".join(args.corpus)}, config.out)
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


def _add_command(commands, name: str, run, help: str):
    """A subcommand with one flag per setting it reads, and --config."""
    sub = commands.add_parser(name, help=help)
    for setting in COMMAND_SETTINGS[name]:
        sub.add_argument("--" + setting.replace("_", "-"), dest=setting,
                         type=_CASTS[setting])
    sub.add_argument("--config", help="flat key=value settings file")
    sub.set_defaults(run=run)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="durflow", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    _add_command(commands, "gen", cmd_gen, "generate a synthetic corpus")

    train = _add_command(commands, "train", cmd_train, "train a duration model")
    train.add_argument("--corpus", required=True, help="corpus file from gen")

    sample = _add_command(commands, "sample", cmd_sample,
                          "sample durations for a corpus")
    sample.add_argument("--checkpoint", required=True)
    sample.add_argument("--corpus", required=True)
    sample.add_argument("--reps", type=int)

    ev = _add_command(commands, "eval", cmd_eval, "write the three report CSVs")
    ev.add_argument("--det", required=True, help="det checkpoint path")
    ev.add_argument("--fm", required=True, help="fm checkpoint path")
    ev.add_argument("--corpus", required=True, action="append",
                    help="validation corpus file; repeatable")
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
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
