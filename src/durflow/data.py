"""Synthetic duration corpora in two styles, plus corpus file IO.

The read style draws every phone class from a tight lognormal (sigma
0.1 in the log domain), giving regular, almost scripted durations. The
spontaneous style layers variability on top: one strongly bimodal
phone class, heavy-tailed pauses inserted between phones, and filler
tokens with their own law. Blanks carry a near-zero duration law in
both styles. Generation is a pure function of the CorpusSpec: every sentence
draws from its own generator seeded by (corpus seed, sentence index),
so corpora are reproducible and parallelisable.

Each sentence's generator is consumed in one fixed order: the phone
count n_phones; then per phone the bimodal coin (only when the spec has
mixture classes), the class, the pause coin and the filler coin; then
one duration per position of the blank-interleaved sequence, in
sequence order, a mixture drawing its component before its lognormal.
The class lists and each class's duration draw are worked out once per
corpus. The sha256 digests of the fixture corpora pinned in the tests
guard this order.

Vocabulary layout: id 0 is BLANK, 1 is PAUSE, 2 is FILLER, the rest
are phone classes.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from durflow.encoder import BLANK_ID, FILLER_ID, PAUSE_ID, PhoneSequence
from durflow.files import atomic_write, plain_number

RESERVED_IDS = (BLANK_ID, PAUSE_ID, FILLER_ID)
ZERO_OK_IDS = (BLANK_ID, PAUSE_ID)  # the classes whose positions may take 0 frames
INT64_MAX = np.iinfo(np.int64).max
FIRST_PHONE_ID = 3
NUM_PHONE_CLASSES = 20
BIMODAL_ID = FIRST_PHONE_ID + NUM_PHONE_CLASSES  # 23
VAL_SENTENCES = 100
VAL_INDEX_OFFSET = 1_000_000  # keeps validation random streams disjoint from train

STYLES = ("read", "spont")


def _default_laws(style: str) -> dict:
    laws = {BLANK_ID: {"kind": "discrete", "values": [0, 1, 2], "probs": [0.8, 0.1, 0.1]}}
    for j in range(NUM_PHONE_CLASSES):
        mu = math.log(4.0 + 3.0 * j / (NUM_PHONE_CLASSES - 1))
        laws[FIRST_PHONE_ID + j] = {"kind": "lognormal", "mu": mu, "sigma": 0.1}
    if style == "spont":
        laws[PAUSE_ID] = {"kind": "lognormal", "mu": math.log(15.0), "sigma": 0.8}
        laws[FILLER_ID] = {"kind": "lognormal", "mu": math.log(8.0), "sigma": 0.4}
        laws[BIMODAL_ID] = {
            "kind": "mixture",
            "components": [[0.5, math.log(2.0), 0.03], [0.5, math.log(12.0), 0.03]],
        }
    return laws


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite real number; bools are not numbers here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_law(cid: int, law):
    """Raise ValueError naming class cid unless law is a well-formed law."""
    def bad(message):
        return ValueError(f"class {cid}: {message}")

    if not isinstance(law, dict):
        raise bad(f"law must be an object, got {law!r}")
    kind = law.get("kind")
    if kind == "lognormal":
        weights, lognormals = [1.0], [(law.get("mu"), law.get("sigma"))]
    elif kind == "mixture":
        components = law.get("components")
        if not (isinstance(components, (list, tuple)) and components and all(
                isinstance(c, (list, tuple)) and len(c) == 3 for c in components)):
            raise bad(f"components must be [weight, mu, sigma] triples, got {components!r}")
        weights, lognormals = [c[0] for c in components], [c[1:] for c in components]
    elif kind == "discrete":
        values, weights, lognormals = law.get("values"), law.get("probs"), []
        if not (isinstance(values, (list, tuple)) and isinstance(weights, (list, tuple))
                and 0 < len(values) == len(weights)):
            raise bad(f"values {values!r} and probs {weights!r} must be lists of one length")
        if not all(_is_int(v) and v >= 0 for v in values):
            raise bad(f"duration values must be integers >= 0, got {values!r}")
    else:
        raise bad(f"unknown law kind {kind!r}")
    if not (all(_is_real(w) and w >= 0 for w in weights) and abs(sum(weights) - 1.0) <= 1e-9):
        raise bad(f"weights must be numbers >= 0 that sum to 1, got {weights!r}")
    for mu, sigma in lognormals:
        if not _is_real(mu):
            raise bad(f"mu must be a finite number, got {mu!r}")
        if not (_is_real(sigma) and sigma > 0):
            raise bad(f"sigma must be a finite number > 0, got {sigma!r}")


@dataclass
class CorpusSpec:
    """Everything needed to regenerate a corpus, seed included."""

    style: str = "read"
    vocab_size: int = 24
    num_sentences: int = 1000
    min_phones: int = 5
    max_phones: int = 12
    seed: int = 0
    pause_prob: float = None
    filler_prob: float = None
    bimodal_prob: float = None
    laws: dict = None

    def __post_init__(self):
        if self.style not in STYLES:
            raise ValueError(f"style must be one of {STYLES}, got {self.style!r}")
        spont = self.style == "spont"
        if self.pause_prob is None:
            self.pause_prob = 0.15 if spont else 0.0
        if self.filler_prob is None:
            self.filler_prob = 0.08 if spont else 0.0
        if self.bimodal_prob is None:
            self.bimodal_prob = 0.25 if spont else 0.0
        if self.laws is None:
            self.laws = _default_laws(self.style)
        if not isinstance(self.laws, dict):
            raise ValueError(f"laws must map class ids to laws, got {self.laws!r}")
        self.laws = {int(k): v for k, v in self.laws.items()}
        self.validate()

    def validate(self):
        """Raise ValueError naming the first field of a wrong type or value;
        then one naming a discrete law that gives a phone class 0 frames,
        which ``load`` would reject, or a class that generation emits but
        that has no law."""
        for name in ("vocab_size", "num_sentences", "min_phones", "max_phones", "seed"):
            value = getattr(self, name)
            if not _is_int(value) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        if not (1 <= self.min_phones <= self.max_phones):
            raise ValueError("need 1 <= min_phones <= max_phones")
        for name in ("pause_prob", "filler_prob", "bimodal_prob"):
            p = getattr(self, name)
            if not (_is_real(p) and 0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be a number in [0, 1], got {p!r}")
        if not self.phone_class_ids():
            raise ValueError("spec declares no phone classes")
        for cid, law in self.laws.items():
            if not 0 <= cid < self.vocab_size:
                raise ValueError(f"class id {cid} outside vocab of size {self.vocab_size}")
            _check_law(cid, law)
        for cid, law in self.laws.items():
            if cid not in ZERO_OK_IDS and law["kind"] == "discrete" and 0 in law["values"]:
                raise ValueError(f"class {cid}: only BLANK and PAUSE may take duration 0, "
                                 f"got values {law['values']!r}")
        if BLANK_ID not in self.laws:
            raise ValueError(f"class {BLANK_ID} (BLANK) has no law, yet every phone is "
                             f"followed by one")
        for name, cid, label in (("pause_prob", PAUSE_ID, "PAUSE"),
                                 ("filler_prob", FILLER_ID, "FILLER")):
            p = getattr(self, name)
            if p > 0 and cid not in self.laws:
                raise ValueError(f"{name} {p!r} emits class {cid} ({label}), which has no law")

    def phone_class_ids(self) -> list:
        return sorted(cid for cid in self.laws if cid not in RESERVED_IDS)

    def mixture_class_ids(self) -> list:
        return [cid for cid in self.phone_class_ids()
                if self.laws[cid]["kind"] == "mixture"]


@dataclass
class Sentence:
    sent_id: int
    seq: PhoneSequence
    durations: np.ndarray

    def __post_init__(self):
        if self.sent_id < 0:
            raise ValueError(f"sentence id must be >= 0, got {self.sent_id}")
        self.durations = np.asarray(self.durations, dtype=np.int64)
        if self.durations.size != len(self.seq):
            raise ValueError("duration count does not match sequence length")

    def __eq__(self, other):
        return (
            isinstance(other, Sentence)
            and self.sent_id == other.sent_id
            and self.seq == other.seq
            and np.array_equal(self.durations, other.durations)
        )


@dataclass
class DurationCorpus:
    sentences: list
    spec: CorpusSpec
    split: str = "train"

    def __post_init__(self):
        if self.split not in ("train", "val"):
            raise ValueError(f"split must be 'train' or 'val', got {self.split!r}")
        if self.split == "val" and len(self.sentences) != VAL_SENTENCES:
            raise ValueError(
                f"validation split must hold exactly {VAL_SENTENCES} sentences, "
                f"got {len(self.sentences)}"
            )

    def __len__(self):
        return len(self.sentences)

    def length_groups(self) -> list:
        """The sentences grouped by exact length, shortest first, in
        corpus order within each group: the rectangular batches that
        training splits a corpus into."""
        groups = {}
        for s in self.sentences:
            groups.setdefault(len(s.seq), []).append(s)
        return [groups[t] for t in sorted(groups)]

    def __eq__(self, other):
        return (
            isinstance(other, DurationCorpus)
            and self.split == other.split
            and self.spec == other.spec
            and self.sentences == other.sentences
        )


def zero_allowed(ids) -> np.ndarray:
    """Mask of positions whose reference duration may legitimately be 0."""
    ids = np.asarray(ids)
    return (ids == BLANK_ID) | (ids == PAUSE_ID)


def round_half_away(x):
    """Nearest integer of positive x, halves away from zero: floor(x + 0.5).

    Durations are positive, so this is the rounding that turns a drawn
    or predicted linear duration into frames (numpy's rint would send
    halves to the even neighbour). Works on floats and arrays alike.
    """
    return np.floor(x + 0.5)


def _cdf(weights) -> list:
    """Cumulative weights over their total in float64, as ``rng.choice``
    normalises its ``p``: ``bisect_right(cdf, rng.random())`` then picks
    the index that ``rng.choice(len(weights), p=weights)`` would."""
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()


def _duration_draw(law: dict, floor: int):
    """A function drawing one duration of law from a sentence's generator:
    the draws ``rng.choice`` and ``rng.lognormal`` would make, for less
    call overhead. ``bisect_right`` on ``_cdf`` stands for ``rng.choice``
    with ``p`` and ``math.floor(raw + 0.5)`` for round_half_away. A
    lognormal draw is raised to floor; a discrete value is kept as drawn."""
    kind = law["kind"]
    if kind == "lognormal":
        mu, sigma = law["mu"], law["sigma"]
        return lambda rng: max(floor, math.floor(rng.lognormal(mu, sigma) + 0.5))
    if kind == "mixture":
        cdf = _cdf([c[0] for c in law["components"]])
        lognormals = [(c[1], c[2]) for c in law["components"]]

        def draw(rng):
            mu, sigma = lognormals[bisect_right(cdf, rng.random())]
            return max(floor, math.floor(rng.lognormal(mu, sigma) + 0.5))
        return draw
    cdf, values = _cdf(law["probs"]), list(law["values"])
    return lambda rng: values[bisect_right(cdf, rng.random())]


class _Sampler:
    """One spec's sentence generator, with everything that does not
    depend on the sentence worked out once per corpus: the class id
    lists and, for each class, its duration draw."""

    def __init__(self, spec: CorpusSpec):
        self.spec = spec
        phone_ids = spec.phone_class_ids()
        self.mixture_ids = spec.mixture_class_ids()
        self.plain_ids = [cid for cid in phone_ids if cid not in self.mixture_ids] or phone_ids
        self.draws = {cid: _duration_draw(law, 0 if cid in ZERO_OK_IDS else 1)
                      for cid, law in spec.laws.items()}

    def sentence(self, index: int) -> Sentence:
        spec, mixture_ids, plain_ids = self.spec, self.mixture_ids, self.plain_ids
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
        random, integers = rng.random, rng.integers
        n_phones = int(integers(spec.min_phones, spec.max_phones + 1))

        ids = []
        for _ in range(n_phones):
            if mixture_ids and random() < spec.bimodal_prob:
                ids += (mixture_ids[integers(len(mixture_ids))], BLANK_ID)
            else:
                ids += (plain_ids[integers(len(plain_ids))], BLANK_ID)
            if random() < spec.pause_prob:
                ids += (PAUSE_ID, BLANK_ID)
            if random() < spec.filler_prob:
                ids += (FILLER_ID, BLANK_ID)

        draws = self.draws
        durations = [draws[tok](rng) for tok in ids]
        return Sentence(index, PhoneSequence(ids), durations)


def generate(spec: CorpusSpec, split: str = "train") -> DurationCorpus:
    """Generate a corpus deterministically from its spec.

    The validation split holds exactly 100 sentences drawn from random
    streams disjoint from every training sentence.
    """
    if split == "train":
        indices = range(spec.num_sentences)
    elif split == "val":
        indices = range(VAL_INDEX_OFFSET, VAL_INDEX_OFFSET + VAL_SENTENCES)
    else:
        raise ValueError(f"split must be 'train' or 'val', got {split!r}")
    sampler = _Sampler(spec)
    sentences = [sampler.sentence(i) for i in indices]
    return DurationCorpus(sentences, spec, split)


# ---------------------------------------------------------------------------
# file format


# the CorpusSpec fields a corpus header's params JSON holds
HEADER_PARAMS = ("num_sentences", "min_phones", "max_phones", "pause_prob",
                 "filler_prob", "bimodal_prob", "laws")


class CorpusFormatError(ValueError):
    pass


def save(corpus: DurationCorpus, path):
    """Write the line-oriented corpus format, atomically; identical corpora
    give identical bytes."""
    spec = corpus.spec
    params = {key: getattr(spec, key) for key in HEADER_PARAMS}
    params["laws"] = {str(k): v for k, v in spec.laws.items()}
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"),
                      default=plain_number)
    lines = [
        f"#durcorpus v1 style={spec.style} vocab={spec.vocab_size} "
        f"seed={spec.seed} split={corpus.split} params={blob}"
    ]
    for s in corpus.sentences:
        ids = " ".join(str(i) for i in s.seq.ids)
        durs = " ".join(str(d) for d in s.durations)
        lines.append(f"{s.sent_id}\t{ids}\t{durs}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load(path) -> DurationCorpus:
    """Parse a corpus file, one data row at a time.

    A row's three tab-separated fields (sentence id, token ids,
    durations) are converted with ``int`` and checked in this order:
    field count, integer tokens, at least one token, as many durations
    as ids, every id in the vocabulary and with a law in the header,
    durations at least 0 and within int64, 0 only on BLANK and PAUSE,
    the interleaved BLANKs, a sentence id at least 0 and not used
    before. The first failed check raises CorpusFormatError naming the
    file and the line; so does a bad header (line 1). A file that is not
    UTF-8 text and a validation split of the wrong size name the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    if not lines or not lines[0].startswith("#durcorpus v1 "):
        raise CorpusFormatError(f"{path}: line 1: missing '#durcorpus v1' header")
    header = {}
    for token in lines[0].split(" ")[2:]:
        key, _, value = token.partition("=")
        header[key] = value
    try:
        params = json.loads(header["params"])
        if not isinstance(params, dict):
            raise ValueError(f"params must be a JSON object, got {params!r}")
        null = [key for key in HEADER_PARAMS if params[key] is None]
        if null:
            raise ValueError(f"params {', '.join(null)} must not be null")
        spec = CorpusSpec(style=header["style"], vocab_size=int(header["vocab"]),
                          seed=int(header["seed"]),
                          **{key: params[key] for key in HEADER_PARAMS})
        split = header["split"]
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CorpusFormatError(f"{path}: line 1: bad header ({exc})") from exc

    law_ids = frozenset(spec.laws)
    sentences = []
    seen = {}  # sentence id -> line
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            sentence = _row_sentence(line.split("\t"), spec.vocab_size, law_ids)
            if sentence.sent_id in seen:
                raise ValueError(f"sentence id {sentence.sent_id} already used on "
                                 f"line {seen[sentence.sent_id]}")
        except ValueError as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc
        seen[sentence.sent_id] = lineno
        sentences.append(sentence)
    try:
        return DurationCorpus(sentences, spec, split)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


def _row_sentence(fields, vocab_size: int, law_ids: frozenset) -> Sentence:
    """The sentence of one data row's tab-separated fields, its checks
    run on the row's Python ints; the first that fails raises
    ValueError saying what is wrong. ``law_ids`` holds the classes that
    have a law."""
    if len(fields) != 3:
        raise ValueError(f"expected 3 tab-separated fields, got {len(fields)}")
    sent_id = int(fields[0])
    ids = list(map(int, fields[1].split()))
    durs = list(map(int, fields[2].split()))
    if not ids:
        raise ValueError("sentence has no tokens")
    if len(ids) != len(durs):
        raise ValueError(f"{len(ids)} ids but {len(durs)} durations")
    if min(ids) < 0 or max(ids) >= vocab_size:
        outside = next(i for i in ids if not 0 <= i < vocab_size)
        raise ValueError(f"token id {outside} outside the vocabulary of size {vocab_size}")
    if not law_ids.issuperset(ids):
        lawless = next(i for i in ids if i not in law_ids)
        raise ValueError(f"token id {lawless} has no duration law in the header")
    if min(durs) < 0:
        raise ValueError("negative duration")
    if max(durs) > INT64_MAX:
        raise ValueError(f"duration {max(durs)} does not fit in int64")
    if not {i for i, d in zip(ids, durs) if d == 0}.issubset(ZERO_OK_IDS):
        raise ValueError("zero duration on a phone position")
    return Sentence(sent_id, PhoneSequence(ids), durs)
