"""Acceptance suite: one test per shipping criterion.

Each test prints a single summary line with the measured numbers, so a
verbose run reads as a checklist. The fixtures in conftest.py hold the
trained models; budgets and tolerances are stated inline.
"""

import math
import time

import numpy as np

from durflow.data import BIMODAL_ID, CorpusSpec, generate
from durflow.duration import (
    DurationModel,
    SampleOptions,
    length_regulate,
    loss,
)
from durflow.encoder import BLANK_ID
from durflow.evaluation import (
    bench_sampling,
    corpus_frames,
    corpus_log_values,
    declared_modes,
    dist_stats,
    frames_by_class,
    residual_vs_nfe,
    write_report,
)
from durflow.numerics import Tensor
from durflow.training import train_model

from _oracles import (
    fd_gradcheck,
    fd_gradcheck_params,
    gradient_cases,
    log_domain_mean,
    rounded_lognormal_moments,
)


def _tiny(kind, seed=0):
    return DurationModel(kind, vocab_size=6, seed=seed,
                         encoder_dim=8, hidden=10, noise_dim=4, time_dim=8)


def test_criterion_1_gradient_integrity():
    """Every differentiable op and both full losses match central finite
    differences with relative error < 1e-4; battery completes in 60 s."""
    start = time.perf_counter()
    worst = {}
    for name, fn, arrays in gradient_cases():
        worst[name] = fd_gradcheck(fn, arrays)

    ids = np.array([[3, 0, 4, 0]])
    targets = np.array([[0.7, -4.6, 1.1, 0.0]])

    det_model = _tiny("det")

    def det_full():
        return loss(det_model, ids, targets, np.random.default_rng(99))

    worst["det_loss"] = fd_gradcheck_params(det_full, list(det_model.params().values()))

    fm_model = _tiny("fm")

    def fm_full():
        return loss(fm_model, ids, targets, np.random.default_rng(99))

    worst["fm_loss"] = fd_gradcheck_params(fm_full, list(fm_model.params().values()))

    elapsed = time.perf_counter() - start
    peak = max(worst, key=worst.get)
    print(f"criterion 1: {len(worst)} gradient checks, worst rel err "
          f"{worst[peak]:.2e} ({peak}), {elapsed:.1f}s")
    assert all(err < 1e-4 for err in worst.values()), worst
    assert elapsed < 60.0


def test_criterion_2_det_class_means(det_read, read_spec, read_val):
    """The trained deterministic model predicts each class's analytic
    log-domain conditional mean within 0.05, after < 2 min of training."""
    refs = {BLANK_ID: 0.8 * math.log(0.01) + 0.1 * math.log(1.01) + 0.1 * math.log(2.01)}
    for cid in read_spec.phone_class_ids():
        law = read_spec.laws[cid]
        refs[cid] = log_domain_mean(law["mu"], law["sigma"], min_duration=1)

    values = corpus_log_values(det_read["model"], read_val, SampleOptions())
    by_class = {}
    for s in read_val.sentences:
        for tok, pred in zip(s.seq.ids, values[s.sent_id].ravel()):
            by_class.setdefault(int(tok), []).append(pred)

    errs = {cid: abs(float(np.mean(v)) - refs[cid]) for cid, v in by_class.items()}
    worst_cid = max(errs, key=errs.get)
    print(f"criterion 2: {len(errs)} classes, worst |mean err| "
          f"{errs[worst_cid]:.4f} (class {worst_cid}), "
          f"trained in {det_read['train_seconds']:.0f}s")
    assert errs[worst_cid] <= 0.05, errs
    assert det_read["train_seconds"] < 120.0


def test_criterion_3_residual_vs_nfe(fm_spont, det_spont, spont_val):
    """Quantisation residual is non-increasing in NFE (tolerance 0.02),
    the deterministic model's residual is exactly constant, and ten steps
    should halve the one-step residual."""
    fm_curve = residual_vs_nfe(fm_spont, spont_val)
    det_curve = residual_vs_nfe(det_spont, spont_val)

    det_values = det_curve.residuals[("det", "spont")]
    assert len(set(det_values)) == 1, det_values

    nfes = fm_curve.nfe_values
    values = fm_curve.residuals[("fm", "spont")]
    print("criterion 3: fm residuals "
          + " ".join(f"{n}:{v:.4f}" for n, v in zip(nfes, values))
          + f", det constant at {det_values[0]:.4f}")
    for i in range(len(values) - 1):
        assert values[i + 1] <= values[i] + 0.02, (
            f"residual increased from nfe={nfes[i]} ({values[i]:.4f}) "
            f"to nfe={nfes[i + 1]} ({values[i + 1]:.4f})"
        )

    r1, r10 = values[nfes.index(1)], values[nfes.index(10)]
    assert r10 <= 0.5 * r1, (
        f"residual(10)={r10:.4f} > 0.5*residual(1)={0.5 * r1:.4f}. "
        f"This bound is not reachable for these duration laws: integrating "
        f"the exact conditional vector field with a 10-step Euler scheme "
        f"already leaves residual 0.097 against 0.5*residual(1)=0.049 on "
        f"this corpus (0.108 vs 0.066 on the read corpus), because "
        f"residual(1) equals the distance from each class's geometric mean "
        f"to the nearest integer, which is small here, while the mass left "
        f"undecided at the final Euler step scales with (1/nfe) divided by "
        f"the log-domain atom spacing, and the tight phone and pause "
        f"classes (spacing 0.22 and 0.065) cannot be resolved in 10 steps "
        f"on the uniform grid t = i/nfe that durflow samples on, at any "
        f"noise temperature."
    )


def test_criterion_4_variance_recovery(fm_spont, det_spont, spont_spec, spont_train):
    """On the bimodal class the deterministic model collapses the spread
    (std < 0.2x true) while flow sampling at temperature 1.0 recovers the
    true std within 25% and draws from both modes (frequencies 0.5+-0.1)."""
    comps = spont_spec.laws[BIMODAL_ID]["components"]
    mean = sum(w * rounded_lognormal_moments(mu, sg, min_duration=1)[0]
               for w, mu, sg in comps)
    second = sum(
        w * (lambda m, s: s * s + m * m)(*rounded_lognormal_moments(mu, sg, min_duration=1))
        for w, mu, sg in comps
    )
    true_std = math.sqrt(second - mean * mean)

    det_frames = corpus_frames(det_spont, spont_train, SampleOptions(), reps=1)
    det_bimodal = frames_by_class(spont_train, det_frames)[BIMODAL_ID]

    fm_frames = corpus_frames(fm_spont, spont_train, SampleOptions(temperature=1.0), reps=1)
    fm_bimodal = frames_by_class(spont_train, fm_frames)[BIMODAL_ID]
    stats = dist_stats({BIMODAL_ID: fm_bimodal},
                       modes_by_class=declared_modes(spont_spec))
    freqs = stats.mode_freqs[BIMODAL_ID]

    det_std = float(det_bimodal.std())
    fm_std = stats.stds[BIMODAL_ID]
    print(f"criterion 4: true std {true_std:.3f}, det std {det_std:.3f}, "
          f"fm std {fm_std:.3f}, mode freqs "
          + " ".join(f"{m:g}:{f:.3f}" for m, f in sorted(freqs.items()))
          + f" over {det_bimodal.size} tokens")
    assert det_bimodal.size >= 1000
    assert det_std < 0.2 * true_std
    assert abs(fm_std - true_std) <= 0.25 * true_std
    for mode, freq in freqs.items():
        assert 0.4 <= freq <= 0.6, (mode, freq)


def test_criterion_5_parameter_budgets():
    det = DurationModel("det", vocab_size=24)
    fm = DurationModel("fm", vocab_size=24)
    det_count = det.predictor_param_count()
    added = fm.predictor_param_count() - det_count
    print(f"criterion 5: det predictor {det_count} params, fm adds {added}")
    assert 380_000 <= det_count <= 420_000
    assert 80_000 <= added <= 120_000


def test_criterion_6_determinism(fm_spont, spont_val, tmp_path):
    spec = CorpusSpec(style="spont", seed=123, num_sentences=40)
    first, second = generate(spec, "train"), generate(spec, "train")
    assert first == second

    corpus = first
    losses = []
    for run in range(2):
        model = DurationModel("det", spec.vocab_size, seed=9,
                              encoder_dim=16, hidden=24, noise_dim=8, time_dim=8)
        losses.append(train_model(model, corpus, 60, batch_size=8, lr=1e-3, seed=9))
    assert np.array_equal(losses[0], losses[1])

    cold = [corpus_log_values(fm_spont, spont_val, SampleOptions(temperature=0.0))
            for _ in range(2)]
    assert all(np.array_equal(cold[0][i], cold[1][i]) for i in cold[0])
    seeded = [corpus_log_values(fm_spont, spont_val, SampleOptions(seed=4)) for _ in range(2)]
    assert all(np.array_equal(seeded[0][i], seeded[1][i]) for i in seeded[0])

    reports = []
    for run in range(2):
        curve = residual_vs_nfe(fm_spont, spont_val, nfe_list=(1, 10))
        frames = corpus_frames(fm_spont, spont_val, SampleOptions(temperature=1.0))
        pooled = frames_by_class(spont_val, frames)
        stats = dist_stats({BIMODAL_ID: pooled[BIMODAL_ID]},
                           modes_by_class=declared_modes(spont_val.spec),
                           min_tokens=50)
        out = tmp_path / f"run{run}"
        write_report(curve, {("fm", "spont"): stats}, [], out)
        reports.append({name: (out / name).read_bytes()
                        for name in ("residual.csv", "dist.csv")})
    assert reports[0] == reports[1]
    print("criterion 6: corpora, loss trajectories, sampling and report "
          "CSVs identical across reruns")


def test_criterion_7_overhead_scaling(fm_spont, spont_val):
    rows = bench_sampling(fm_spont, spont_val, nfe_list=(10, 20), repetitions=5)
    by_nfe = {row["nfe"]: row["median_ms"] for row in rows}
    ratio = by_nfe[20] / by_nfe[10]
    print(f"criterion 7: median {by_nfe[10]:.1f} ms at nfe 10, "
          f"{by_nfe[20]:.1f} ms at nfe 20, ratio {ratio:.2f}")
    assert 1.6 <= ratio <= 2.4


def test_criterion_8_length_conservation():
    rng = np.random.default_rng(31)
    for case in range(1000):
        t_len = int(rng.integers(1, 40))
        cond = Tensor(rng.normal(size=(6, t_len)))
        frames = rng.integers(0, 7, size=t_len)
        out = length_regulate(cond, frames)
        assert out.data.shape == (6, int(frames.sum()))
    print("criterion 8: 1000 random cases conserve total length exactly")
