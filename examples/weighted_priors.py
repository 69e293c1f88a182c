"""Certain predictions under non-uniform candidate priors.

The paper's "Moving Forward" section asks for priors over the candidate
repairs. Under block tuple-independent probabilistic-database semantics each
candidate repair carries a probability, and the query returns exact rational
label probabilities. The uniform prior reproduces the Q2 world counts
divided by the number of worlds.

Run with::

    python examples/weighted_priors.py
"""

from fractions import Fraction

import numpy as np

from repro.core import (
    IncompleteDataset,
    q2_counts,
    uniform_candidate_weights,
    weighted_prediction_probabilities,
)
from repro.core.entropy import counts_to_probabilities

rng = np.random.default_rng(0)

# A small incomplete dataset: 8 rows, up to 3 candidates each.
sets = [rng.normal(size=(int(rng.integers(1, 4)), 2)) for _ in range(8)]
labels = rng.integers(0, 2, size=8)
labels[:2] = [0, 1]
dataset = IncompleteDataset(sets, labels)
point = rng.normal(size=2)
print(dataset)

# The uniform prior is Q2 over the world count.
uniform = weighted_prediction_probabilities(
    dataset, point, k=3, weights=uniform_candidate_weights(dataset)
)
counts = q2_counts(dataset, point, k=3)
assert uniform == [Fraction(c, sum(counts)) for c in counts]
print(f"\nUniform prior: P(label) = {[str(p) for p in uniform]}")
print(f"  = Q2 counts {counts} / {sum(counts)} worlds ~ {np.round(counts_to_probabilities(counts), 3)}")

# A non-uniform prior: each row's first candidate is twice as likely as the others.
weights = []
for row in range(dataset.n_rows):
    m = dataset.candidates(row).shape[0]
    raw = [2] + [1] * (m - 1)
    total = sum(raw)
    weights.append([Fraction(w, total) for w in raw])

probs = weighted_prediction_probabilities(dataset, point, k=3, weights=weights)
assert sum(probs) == 1
print("\nKNN over a non-uniform tuple-independent probabilistic database:")
print(f"  P(label) = {[str(p) for p in probs]}  (exact rationals, sum = {sum(probs)})")
