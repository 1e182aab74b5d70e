import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from durflow import data
from durflow.data import (
    BIMODAL_ID,
    VAL_INDEX_OFFSET,
    CorpusSpec,
    CorpusFormatError,
    DurationCorpus,
    _default_laws,
    generate,
    load,
    save,
    zero_allowed,
)
from durflow.encoder import BLANK_ID, FILLER_ID, PAUSE_ID

from _oracles import per_token_sentence, rounded_lognormal_moments


class TestSpecValidation:
    def test_defaults_are_valid(self):
        CorpusSpec(style="read")
        CorpusSpec(style="spont")

    def test_bad_style_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec(style="studio")

    def test_nonpositive_sigma_rejected(self):
        laws = {3: {"kind": "lognormal", "mu": 1.0, "sigma": 0.0}}
        with pytest.raises(ValueError):
            CorpusSpec(style="read", laws=laws)

    def test_mixture_weights_must_sum_to_one(self):
        laws = {3: {"kind": "mixture", "components": [[0.6, 1.0, 0.1], [0.6, 2.0, 0.1]]}}
        with pytest.raises(ValueError):
            CorpusSpec(style="read", laws=laws)

    def test_discrete_probs_must_sum_to_one(self):
        laws = {
            BLANK_ID: {"kind": "discrete", "values": [0, 1], "probs": [0.5, 0.6]},
            3: {"kind": "lognormal", "mu": 1.0, "sigma": 0.1},
        }
        with pytest.raises(ValueError):
            CorpusSpec(style="read", laws=laws)

    def test_class_outside_vocab_rejected(self):
        laws = {30: {"kind": "lognormal", "mu": 1.0, "sigma": 0.1}}
        with pytest.raises(ValueError):
            CorpusSpec(style="read", vocab_size=24, laws=laws)

    def test_negative_class_id_rejected(self):
        laws = {-1: {"kind": "lognormal", "mu": 1.0, "sigma": 0.1}}
        with pytest.raises(ValueError, match="class id -1"):
            CorpusSpec(style="read", vocab_size=24, laws=laws)

    def test_unknown_law_kind_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec(style="read", laws={3: {"kind": "gamma", "mu": 1.0}})

    @pytest.mark.parametrize("field, cid, label", [("pause_prob", PAUSE_ID, "PAUSE"),
                                                   ("filler_prob", FILLER_ID, "FILLER")])
    def test_emitted_class_without_law_rejected(self, field, cid, label):
        # read laws hold neither PAUSE nor FILLER
        with pytest.raises(ValueError, match=fr"^{field} 0.1 emits class {cid} \({label}\), "
                                             fr"which has no law$"):
            CorpusSpec(style="read", **{field: 0.1})

    def test_missing_blank_law_rejected(self):
        laws = {3: {"kind": "lognormal", "mu": 1.0, "sigma": 0.1}}
        with pytest.raises(ValueError, match=r"^class 0 \(BLANK\) has no law"):
            CorpusSpec(style="read", laws=laws)

    @pytest.mark.parametrize("cid", [FILLER_ID, 3, BIMODAL_ID])
    def test_discrete_zero_on_a_phone_class_rejected(self, cid):
        laws = _default_laws("spont")
        laws[cid] = {"kind": "discrete", "values": [0, 2], "probs": [0.5, 0.5]}
        with pytest.raises(ValueError, match=fr"^class {cid}: only BLANK and PAUSE may take "
                                             fr"duration 0, got values \[0, 2\]$"):
            CorpusSpec(style="spont", laws=laws)

    def test_discrete_zero_on_pause_generates_loadable_corpus(self, tmp_path):
        laws = _default_laws("spont")
        laws[PAUSE_ID] = {"kind": "discrete", "values": [0, 4], "probs": [0.5, 0.5]}
        corpus = generate(CorpusSpec(style="spont", seed=1, num_sentences=40, laws=laws))
        ids = np.concatenate([s.seq.ids for s in corpus.sentences])
        durs = np.concatenate([s.durations for s in corpus.sentences])
        assert np.any(durs[ids == PAUSE_ID] == 0)
        path = tmp_path / "p.durcorpus"
        save(corpus, path)
        assert load(path) == corpus


def _edge_spec(laws=None, **fields) -> CorpusSpec:
    """A 40-sentence spont spec whose default laws are updated by laws."""
    return CorpusSpec(style="spont", seed=3, num_sentences=40,
                      laws={**_default_laws("spont"), **(laws or {})}, **fields)


# specs at the corners of the draw tables: cdfs of one entry or with
# zero-probability entries, wide lognormals, coins that always or never land
EDGE_SPECS = {
    "three-component-mixture": lambda: _edge_spec({BIMODAL_ID: {"kind": "mixture", "components": [
        [0.2, math.log(2.0), 0.1], [0.5, math.log(6.0), 0.2], [0.3, math.log(12.0), 0.05]]}}),
    "one-component-mixture": lambda: _edge_spec(
        {BIMODAL_ID: {"kind": "mixture", "components": [[1.0, math.log(5.0), 0.3]]}}),
    "zero-probability-values": lambda: _edge_spec({
        BLANK_ID: {"kind": "discrete", "values": [0, 1, 2], "probs": [0.7, 0.0, 0.3]},
        4: {"kind": "discrete", "values": [2, 3, 5], "probs": [0.0, 1.0, 0.0]}}),
    "sigma-2": lambda: _edge_spec({3: {"kind": "lognormal", "mu": 0.0, "sigma": 2.0},
                                   PAUSE_ID: {"kind": "lognormal", "mu": 1.0, "sigma": 2.0}}),
    "only-mixture-phones": lambda: CorpusSpec(style="spont", seed=3, num_sentences=40, laws={
        cid: law for cid, law in _default_laws("spont").items()
        if cid in (BLANK_ID, PAUSE_ID, FILLER_ID, BIMODAL_ID)}),
    "min-equals-max-phones": lambda: _edge_spec(min_phones=7, max_phones=7),
    "coins-always-pause-never-filler": lambda: _edge_spec(
        bimodal_prob=1.0, pause_prob=1.0, filler_prob=0.0),
    "coins-never-filler-always": lambda: _edge_spec(
        bimodal_prob=0.0, pause_prob=0.0, filler_prob=1.0),
}


class TestGeneratorMatchesPerTokenOracle:
    """The per-class draw tables give every sentence exactly the draws of
    the per-token generator that they replaced."""

    @staticmethod
    def assert_matches(spec, split):
        corpus = generate(spec, split)
        offset = VAL_INDEX_OFFSET if split == "val" else 0
        assert [s.sent_id for s in corpus.sentences] == list(
            range(offset, offset + len(corpus)))
        for s in corpus.sentences:
            assert s == per_token_sentence(spec, s.sent_id)

    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize("style", ["read", "spont"])
    @pytest.mark.parametrize("seed", [0, 1, 777])
    def test_styles_seeds_and_splits(self, style, seed, split):
        self.assert_matches(CorpusSpec(style=style, seed=seed, num_sentences=60), split)

    @pytest.mark.parametrize("case", sorted(EDGE_SPECS))
    def test_edge_specs(self, case):
        self.assert_matches(EDGE_SPECS[case](), "train")


# sha256 prefixes of the saved fixture corpora (conftest); they change
# only if the generator's draw order, or the file format, does
FIXTURE_DIGESTS = {
    "read_train": "ad83bb46ff6054ef",
    "read_val": "afaa73d878e27d70",
    "spont_train": "1b8d32c76c09613a",
    "spont_val": "ebcf979a460b1150",
}


@pytest.mark.parametrize("fixture", sorted(FIXTURE_DIGESTS))
def test_fixture_corpus_bytes_are_pinned(request, tmp_path, fixture):
    path = tmp_path / "c.durcorpus"
    save(request.getfixturevalue(fixture), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == FIXTURE_DIGESTS[fixture]


class TestGenerate:
    def test_degenerate_law_gives_constant_durations(self):
        laws = {
            BLANK_ID: {"kind": "discrete", "values": [0], "probs": [1.0]},
            3: {"kind": "lognormal", "mu": np.log(5.0), "sigma": 1e-9},
        }
        spec = CorpusSpec(style="read", num_sentences=20, laws=laws)
        corpus = generate(spec)
        for s in corpus.sentences:
            phones = s.seq.ids[0::2]
            assert np.all(phones == 3)
            assert np.all(s.durations[0::2] == 5)
            assert np.all(s.durations[1::2] == 0)

    def test_same_seed_gives_identical_corpora(self):
        spec = CorpusSpec(style="spont", num_sentences=30, seed=5)
        assert generate(spec) == generate(CorpusSpec(style="spont", num_sentences=30, seed=5))

    def test_different_seed_differs(self):
        a = generate(CorpusSpec(style="read", num_sentences=10, seed=1))
        b = generate(CorpusSpec(style="read", num_sentences=10, seed=2))
        assert a != b

    def test_structure_invariants(self):
        corpus = generate(CorpusSpec(style="spont", num_sentences=50, seed=3))
        for s in corpus.sentences:
            assert np.all(s.seq.ids[1::2] == BLANK_ID)
            assert np.all(s.durations >= 0)
            zero_ok = zero_allowed(s.seq.ids)
            assert np.all(s.durations[~zero_ok] >= 1)

    def test_read_style_has_no_pauses_or_fillers(self):
        corpus = generate(CorpusSpec(style="read", num_sentences=50, seed=0))
        all_ids = np.concatenate([s.seq.ids for s in corpus.sentences])
        assert not np.any(all_ids == PAUSE_ID)
        assert not np.any(all_ids == FILLER_ID)

    def test_spont_style_has_pauses_fillers_and_bimodal(self):
        corpus = generate(CorpusSpec(style="spont", num_sentences=50, seed=0))
        all_ids = np.concatenate([s.seq.ids for s in corpus.sentences])
        assert np.sum(all_ids == PAUSE_ID) > 0
        assert np.sum(all_ids == FILLER_ID) > 0
        assert np.sum(all_ids == BIMODAL_ID) > 0

    def test_sentence_lengths_in_range(self):
        spec = CorpusSpec(style="read", num_sentences=40, min_phones=5, max_phones=12)
        for s in generate(spec).sentences:
            n_phones = np.sum(~zero_allowed(s.seq.ids) )
            assert 5 <= n_phones <= 12
            assert len(s.seq) == 2 * (len(s.seq) // 2)

    def test_class_moments_match_generating_law(self):
        spec = CorpusSpec(style="read", num_sentences=1200, seed=11)
        corpus = generate(spec)
        ids = np.concatenate([s.seq.ids for s in corpus.sentences])
        durs = np.concatenate([s.durations for s in corpus.sentences])
        phone_tokens = np.sum(~zero_allowed(ids))
        assert phone_tokens >= 10_000
        for cid in (3, 12, 22):
            law = spec.laws[cid]
            sample = durs[ids == cid].astype(float)
            n = sample.size
            assert n > 200
            mean, std = rounded_lognormal_moments(law["mu"], law["sigma"], min_duration=1)
            se_mean = std / np.sqrt(n)
            se_std = std / np.sqrt(2 * n)
            assert abs(sample.mean() - mean) < 3 * se_mean
            assert abs(sample.std() - std) < 3 * se_std

    def test_spont_pooled_std_at_least_twice_read(self):
        read = generate(CorpusSpec(style="read", num_sentences=400, seed=2))
        spont = generate(CorpusSpec(style="spont", num_sentences=400, seed=2))
        read_std = np.concatenate([s.durations for s in read.sentences]).std()
        spont_std = np.concatenate([s.durations for s in spont.sentences]).std()
        assert spont_std >= 2.0 * read_std

    def test_validation_split_is_exactly_100_and_disjoint(self):
        spec = CorpusSpec(style="read", num_sentences=120, seed=9)
        train = generate(spec, split="train")
        val = generate(spec, split="val")
        assert len(val) == 100
        assert val.split == "val"
        train_keys = {tuple(s.seq.ids.tolist()) + tuple(s.durations.tolist())
                      for s in train.sentences}
        overlap = sum(
            1 for s in val.sentences
            if tuple(s.seq.ids.tolist()) + tuple(s.durations.tolist()) in train_keys
        )
        # identical draws are possible but should be rare
        assert overlap <= 2

    def test_wrong_val_count_rejected(self):
        spec = CorpusSpec(style="read", num_sentences=5)
        sentences = generate(spec).sentences[:5]
        with pytest.raises(ValueError):
            DurationCorpus(sentences, spec, split="val")


class TestLengthGroups:
    def test_ascending_lengths_each_sentence_once_in_corpus_order(self):
        corpus = generate(CorpusSpec(style="spont", seed=5, num_sentences=60, max_phones=6))
        groups = corpus.length_groups()
        lengths = [len(group[0].seq) for group in groups]
        assert len(groups) > 1 and lengths == sorted(set(lengths))
        for group, length in zip(groups, lengths):
            # exactly the sentences of that length, in corpus order
            assert [id(s) for s in group] == [
                id(s) for s in corpus.sentences if len(s.seq) == length]
        assert sum(map(len, groups)) == len(corpus)


class TestZeroAllowed:
    def test_blank_and_pause_only(self):
        ids = np.array([BLANK_ID, PAUSE_ID, FILLER_ID, 3, BIMODAL_ID])
        assert zero_allowed(ids).tolist() == [True, True, False, False, False]


def replaced(params, keys, value):
    """params with the value at the path of keys replaced by value."""
    node = params
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return params


# one header value of the wrong type each: params JSON in, edited JSON out
MISTYPED_HEADERS = {
    "law-not-an-object": lambda p: replaced(p, ["laws", "0"], 5),
    "params-a-list": lambda p: [1, 2],
    "probability-a-string": lambda p: replaced(p, ["pause_prob"], "x"),
    "count-a-list": lambda p: replaced(p, ["num_sentences"], [1]),
    "sigma-a-string": lambda p: replaced(p, ["laws", "3", "sigma"], "a"),
    "component-of-two-entries": lambda p: replaced(
        p, ["laws", str(BIMODAL_ID), "components", 0], [0.5, 0.7]),
}


def without_law(params, cid):
    """params with the law of class cid dropped."""
    return replaced(params, ["laws"], {k: v for k, v in params["laws"].items() if k != str(cid)})


# header laws that generation could not honour, with the start of the
# reason CorpusSpec gives
UNHONOURED_LAWS = {
    "zero-on-a-phone-class": (
        lambda p: replaced(p, ["laws", "3"], {"kind": "discrete", "values": [0, 2],
                                              "probs": [0.5, 0.5]}),
        r"class 3: only BLANK and PAUSE may take duration 0"),
    "pause-without-law": (lambda p: without_law(p, PAUSE_ID),
                          r"pause_prob 0.15 emits class 1 \(PAUSE\)"),
    "no-blank-law": (lambda p: without_law(p, BLANK_ID), r"class 0 \(BLANK\) has no law"),
}


def save_with_header_edit(path, edit):
    """Save spont seed 0 val to path with edit applied to its header's params."""
    save(generate(CorpusSpec(style="spont", seed=0), "val"), path)
    header, rest = path.read_text().split("\n", 1)
    head, blob = header.split(" params=", 1)
    blob = json.dumps(edit(json.loads(blob)), separators=(",", ":"))
    path.write_text(f"{head} params={blob}\n{rest}")


# read corpora declare no pause, filler or bimodal law; spont ones do
SMALL_CORPORA = {style: generate(CorpusSpec(style=style, num_sentences=4, seed=5,
                                            max_phones=5))
                 for style in ("read", "spont")}


def corpus_rows(corpus) -> list:
    """The corpus's data rows as ``data.load`` splits them: (line number,
    tab-separated fields) pairs."""
    return [(lineno, [str(s.sent_id), " ".join(map(str, s.seq.ids)),
                      " ".join(map(str, s.durations))])
            for lineno, s in enumerate(corpus.sentences, start=2)]


def laws_mask(corpus) -> np.ndarray:
    has_law = np.zeros(corpus.spec.vocab_size, dtype=bool)
    has_law[list(corpus.spec.laws)] = True
    return has_law


class TestFileFormat:
    def test_round_trip_identity(self, tmp_path):
        corpus = generate(CorpusSpec(style="spont", num_sentences=25, seed=4))
        path = tmp_path / "c.durcorpus"
        save(corpus, path)
        assert load(path) == corpus

    def test_identical_corpora_give_identical_bytes(self, tmp_path):
        spec = CorpusSpec(style="read", num_sentences=15, seed=8)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save(generate(spec), p1)
        save(generate(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_format(self, tmp_path):
        corpus = generate(CorpusSpec(style="read", num_sentences=3, seed=6))
        path = tmp_path / "c.durcorpus"
        save(corpus, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("#durcorpus v1 style=read vocab=24 seed=6 split=train ")

    def test_hand_written_fixture(self, tmp_path):
        laws = {
            BLANK_ID: {"kind": "discrete", "values": [0], "probs": [1.0]},
            3: {"kind": "lognormal", "mu": 0.5, "sigma": 0.1},
            4: {"kind": "lognormal", "mu": 1.0, "sigma": 0.1},
        }
        import json
        params = {
            "num_sentences": 2, "min_phones": 1, "max_phones": 3,
            "pause_prob": 0.0, "filler_prob": 0.0, "bimodal_prob": 0.0,
            "laws": {str(k): v for k, v in laws.items()},
        }
        blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
        text = (
            f"#durcorpus v1 style=read vocab=8 seed=1 split=train params={blob}\n"
            "0\t3 0 4 0\t5 0 7 1\n"
            "1\t4 0\t2 2\n"
        )
        path = tmp_path / "hand.durcorpus"
        path.write_text(text)
        corpus = load(path)
        assert len(corpus) == 2
        assert corpus.spec.vocab_size == 8
        assert corpus.sentences[0].seq.ids.tolist() == [3, 0, 4, 0]
        assert corpus.sentences[0].durations.tolist() == [5, 0, 7, 1]
        assert corpus.sentences[1].sent_id == 1
        assert corpus.sentences[1].durations.tolist() == [2, 2]

    def test_valid_corpora_are_checked_at_once(self):
        # the line-by-line reader runs only for a file that fails a check
        for style in ("read", "spont"):
            corpus = generate(CorpusSpec(style=style, num_sentences=30, seed=2))
            rows = corpus_rows(corpus)
            assert data._checked_at_once(rows, laws_mask(corpus)) == corpus.sentences

    @pytest.mark.parametrize("style", ["read", "spont"])
    def test_checked_at_once_accepts_only_what_line_by_line_accepts(self, style):
        # every single-token edit of a small corpus, and every sentence cut
        # to odd length: wherever the bulk check accepts the rows, the
        # line-by-line reader gives the same sentences
        corpus = SMALL_CORPORA[style]
        has_law = laws_mask(corpus)
        tokens = ["-1", "0", "1", "2", "3", "23", "24", "x", "", "+3", "1_0", "\u0663",
                  "1.5", "99999999999999999999", "0 0", "5\t6"]
        for i, (lineno, fields) in enumerate(corpus_rows(corpus)):
            edits = [[fields[0], fields[1].rsplit(" ", 1)[0], fields[2].rsplit(" ", 1)[0]]]
            for field, positions in ((0, [None]), (1, range(len(fields[1].split()))),
                                     (2, range(len(fields[2].split())))):
                for position, token in itertools.product(positions, tokens):
                    edited = list(fields)
                    if position is None:
                        edited[field] = token
                    else:
                        parts = edited[field].split()
                        parts[position] = token
                        edited[field] = " ".join(parts)
                    edits.append(edited)
            for edited in edits:
                rows = corpus_rows(corpus)
                rows[i] = (lineno, "\t".join(edited).split("\t"))
                try:
                    expected = data._checked_line_by_line("c.durcorpus", rows, has_law)
                except (ValueError, OverflowError):
                    expected = None
                got = data._checked_at_once(rows, has_law)
                assert got is None or got == expected, (lineno, edited)

    def test_missing_header_reports_line_1(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("0\t3 0\t5 0\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load(path)

    def test_truncated_sentence_reports_line(self, tmp_path):
        corpus = generate(CorpusSpec(style="read", num_sentences=2, seed=0))
        path = tmp_path / "t.durcorpus"
        save(corpus, path)
        text = path.read_text().splitlines()
        text[2] = text[2].rsplit("\t", 1)[0]  # drop the duration field
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(CorpusFormatError, match="line 3"):
            load(path)

    def test_count_mismatch_reports_line(self, tmp_path):
        corpus = generate(CorpusSpec(style="read", num_sentences=1, seed=0))
        path = tmp_path / "m.durcorpus"
        save(corpus, path)
        lines = path.read_text().splitlines()
        sent = lines[1].split("\t")
        sent[2] = sent[2] + " 4"
        lines[1] = "\t".join(sent)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load(path)

    def test_non_integer_token_reports_line(self, tmp_path):
        corpus = generate(CorpusSpec(style="read", num_sentences=1, seed=0))
        path = tmp_path / "n.durcorpus"
        save(corpus, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("\t", "\tx ", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load(path)

    def test_zero_phone_duration_reports_line(self, tmp_path):
        spec = CorpusSpec(style="read", num_sentences=1, seed=0)
        corpus = generate(spec)
        path = tmp_path / "z.durcorpus"
        save(corpus, path)
        lines = path.read_text().splitlines()
        sent = lines[1].split("\t")
        durs = sent[2].split()
        durs[0] = "0"  # first position is a phone
        sent[2] = " ".join(durs)
        lines[1] = "\t".join(sent)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load(path)

    def test_duplicate_sentence_id_reports_both_lines(self, tmp_path):
        path = tmp_path / "d.durcorpus"
        save(generate(CorpusSpec(style="read", num_sentences=3, seed=0)), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[1].split("\t", 1)[0] + "\t" + lines[3].split("\t", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError,
                           match="d.durcorpus: line 4: sentence id 0 already used on line 2"):
            load(path)

    def test_short_validation_file_names_file(self, tmp_path):
        path = tmp_path / "v.durcorpus"
        save(generate(CorpusSpec(style="read", seed=0), "val"), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CorpusFormatError, match="v.durcorpus: .*100 sentences, got 99"):
            load(path)

    def test_non_utf8_file_names_file(self, tmp_path):
        path = tmp_path / "b.durcorpus"
        save(generate(CorpusSpec(style="read", num_sentences=2, seed=0)), path)
        path.write_bytes(path.read_bytes().replace(b"\t", b"\xff", 1))
        with pytest.raises(CorpusFormatError, match="b.durcorpus: not UTF-8"):
            load(path)

    @pytest.mark.parametrize("case", sorted(MISTYPED_HEADERS))
    def test_mistyped_header_value_reports_line_1(self, tmp_path, case):
        path = tmp_path / "h.durcorpus"
        save_with_header_edit(path, MISTYPED_HEADERS[case])
        with pytest.raises(CorpusFormatError, match="h.durcorpus: line 1: bad header"):
            load(path)

    @pytest.mark.parametrize("case", sorted(UNHONOURED_LAWS))
    def test_laws_generation_cannot_honour_report_line_1(self, tmp_path, case):
        edit, reason = UNHONOURED_LAWS[case]
        path = tmp_path / "z.durcorpus"
        save_with_header_edit(path, edit)
        with pytest.raises(CorpusFormatError,
                           match=fr"z.durcorpus: line 1: bad header \({reason}"):
            load(path)

    @pytest.mark.parametrize("token, reason", [
        (30, "outside the vocabulary of size 24"),
        (BIMODAL_ID, "no duration law"),  # read corpora declare no bimodal class
    ])
    def test_unknown_token_id_reports_line(self, tmp_path, token, reason):
        corpus = generate(CorpusSpec(style="read", num_sentences=2, seed=0))
        path = tmp_path / "u.durcorpus"
        save(corpus, path)
        lines = path.read_text().splitlines()
        sent = lines[2].split("\t")
        ids = sent[1].split()
        ids[0] = str(token)
        sent[1] = " ".join(ids)
        lines[2] = "\t".join(sent)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError,
                           match=f"u.durcorpus: line 3: token id {token} .*{reason}"):
            load(path)
