"""Train both duration models on a small read-style corpus.

Generates a 200-sentence corpus, trains the deterministic predictor and
the flow-matching model briefly, then prints the quantisation residual
of each across Euler step counts. Runs in about a minute on a laptop.
"""

import numpy as np

from durflow.data import CorpusSpec, generate
from durflow.duration import DurationModel
from durflow.evaluation import residual_vs_nfe
from durflow.training import train_model


def main():
    spec = CorpusSpec(style="read", seed=42, num_sentences=200)
    train = generate(spec, "train")
    val = generate(spec, "val")
    n_tokens = sum(len(s.seq) for s in train.sentences)
    print(f"corpus: {len(train)} train sentences, {n_tokens} positions, "
          f"{len(val)} val sentences")

    det = DurationModel("det", spec.vocab_size, seed=0)
    losses = train_model(det, train, 600, batch_size=16, lr=1e-3, seed=0)
    print(f"det: 600 steps, loss {losses[0]:.3f} -> {losses[-1]:.3f}")

    fm = DurationModel("fm", spec.vocab_size, seed=0)
    losses = train_model(fm, train, 600, batch_size=16, lr=1e-3, seed=0)
    print(f"fm:  600 steps, loss {losses[0]:.3f} -> {losses[-1]:.3f}\n")

    curve = residual_vs_nfe(fm, val)
    curve = curve.merge(residual_vs_nfe(det, val))

    print("quantisation residual (mean distance to the nearest frame count)")
    print("nfe:   " + "".join(f"{n:>8d}" for n in curve.nfe_values))
    for key in sorted(curve.residuals):
        row = curve.residuals[key]
        print(f"{key[0]:>4s}:  " + "".join(f"{v:8.4f}" for v in row))
    print("\nthe det row is flat by construction: its output ignores the")
    print("step count. The fm row barely moves on this corpus, and that")
    print("is a property of the data, not of the training budget: read")
    print("phone durations sit 0.1-0.3 apart in the log domain, too close")
    print("for a short Euler path to commit to one frame count. Compare")
    print("demos/02_flow_matching_1d.py, where atoms 1.8 apart go from")
    print("residual 0.10 at one step to 0.001 at ten.")


if __name__ == "__main__":
    main()
