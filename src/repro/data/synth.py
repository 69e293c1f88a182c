"""Low-level synthetic data generation for the dataset recipes.

The paper evaluates on four real tables (Table 1). Those files are not
available offline, so :mod:`repro.data.recipes` rebuilds tables with the
same *shape* — mixed numeric/categorical attributes, tunable class
difficulty, attribute correlation — from the primitives here. The
generative model:

1. draw a latent class-dependent Gaussian ``z`` per row (informative
   directions get class-separated means);
2. numeric attributes are rotated, scaled views of ``z`` plus noise
   (so attributes correlate with each other, which the HoloClean-style
   cleaner exploits);
3. categorical attributes are quantile-binned latent directions, with a
   skewed category-frequency profile (so "top-4 + other" repairs are
   meaningful);
4. labels come from the latent class with a configurable flip rate
   (difficulty knob matching each dataset's headline accuracy).
"""

from __future__ import annotations

import numpy as np

from repro.data.table import Table
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["SyntheticSpec", "generate_table"]


class SyntheticSpec:
    """Parameters of one synthetic mixed-type classification table."""

    def __init__(
        self,
        n_rows: int,
        n_numeric: int,
        n_categorical: int,
        n_labels: int = 2,
        class_separation: float = 1.6,
        informative_fraction: float = 0.7,
        label_noise: float = 0.05,
        categories_per_column: int = 8,
        category_skew: float = 1.3,
        noise_scale: float = 0.6,
        nuisance_scale: float = 0.5,
        structure: str = "blobs",
    ) -> None:
        self.n_rows = check_positive_int(n_rows, "n_rows")
        self.n_numeric = check_positive_int(n_numeric, "n_numeric", minimum=0)
        self.n_categorical = check_positive_int(n_categorical, "n_categorical", minimum=0)
        if self.n_numeric + self.n_categorical == 0:
            raise ValueError("the table needs at least one attribute")
        self.n_labels = check_positive_int(n_labels, "n_labels", minimum=2)
        if class_separation <= 0:
            raise ValueError(f"class_separation must be positive, got {class_separation}")
        self.class_separation = float(class_separation)
        self.informative_fraction = check_fraction(informative_fraction, "informative_fraction")
        self.label_noise = check_fraction(label_noise, "label_noise")
        self.categories_per_column = check_positive_int(
            categories_per_column, "categories_per_column", minimum=2
        )
        if category_skew <= 0:
            raise ValueError(f"category_skew must be positive, got {category_skew}")
        self.category_skew = float(category_skew)
        if noise_scale < 0:
            raise ValueError(f"noise_scale must be non-negative, got {noise_scale}")
        self.noise_scale = float(noise_scale)
        if nuisance_scale < 0:
            raise ValueError(f"nuisance_scale must be non-negative, got {nuisance_scale}")
        self.nuisance_scale = float(nuisance_scale)
        if structure not in ("blobs", "concentric"):
            raise ValueError(f"structure must be 'blobs' or 'concentric', got {structure!r}")
        self.structure = structure


def _class_means(spec: SyntheticSpec, latent_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Per-class latent means in the informative prefix of the latent space.

    Classes sit at ``+/- (separation / 2)`` along orthonormal directions
    (antipodal pairs first), so any two class means are at least
    ``separation / sqrt(2)`` apart regardless of the draw.
    """
    n_informative = max(1, round(spec.informative_fraction * latent_dim))
    gauss = rng.normal(size=(n_informative, n_informative))
    q, _ = np.linalg.qr(gauss)
    means = np.zeros((spec.n_labels, latent_dim))
    for label in range(spec.n_labels):
        column = (label // 2) % q.shape[1]
        sign = 1.0 if label % 2 == 0 else -1.0
        means[label, :n_informative] = (spec.class_separation / 2.0) * sign * q[:, column]
    return means


def _skewed_bins(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Cumulative quantile edges producing a skewed category-frequency profile."""
    raw = rng.dirichlet(np.full(spec.categories_per_column, 1.0 / spec.category_skew))
    raw = np.sort(raw)[::-1]  # most frequent category first => code 0 is the mode-ish
    return np.cumsum(raw)[:-1]


def generate_table(spec: SyntheticSpec, seed: int | np.random.Generator | None = None) -> Table:
    """Sample a complete :class:`~repro.data.table.Table` from ``spec``."""
    rng = ensure_rng(seed)
    latent_dim = spec.n_numeric + spec.n_categorical
    true_class = rng.integers(0, spec.n_labels, size=spec.n_rows)
    n_informative = max(1, round(spec.informative_fraction * latent_dim))

    if spec.structure == "concentric":
        # Nested-shell classes: class 0 is a tight cluster at the origin of
        # the informative subspace, class l >= 1 a shell at radius
        # ``l * separation``. Extreme attribute values are the hallmark of
        # the outer classes, which is what makes value-dependent
        # missingness plus mean imputation (a pull toward the origin)
        # genuinely label-confusing.
        latent = np.zeros((spec.n_rows, latent_dim))
        directions = rng.normal(size=(spec.n_rows, n_informative))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        directions /= np.where(norms > 0, norms, 1.0)
        radii = true_class * spec.class_separation + 0.55 * rng.normal(size=spec.n_rows)
        latent[:, :n_informative] = directions * radii[:, None]
        latent[:, :n_informative] += 0.35 * rng.normal(size=(spec.n_rows, n_informative))
        latent[:, n_informative:] = spec.nuisance_scale * rng.normal(
            size=(spec.n_rows, latent_dim - n_informative)
        )
    else:
        means = _class_means(spec, latent_dim, rng)
        noise_std = np.full(latent_dim, spec.nuisance_scale)
        noise_std[:n_informative] = 1.0
        latent = means[true_class] + noise_std[None, :] * rng.normal(
            size=(spec.n_rows, latent_dim)
        )

    # Numeric attributes: attribute j is primarily latent direction j (so
    # the class signal stays concentrated in the informative attributes and
    # leave-one-out importance is sharp), plus a weak shared mixing term
    # that cross-correlates attributes (exploited by the HoloClean-style
    # cleaner) and observation noise.
    numeric = np.empty((spec.n_rows, 0))
    if spec.n_numeric:
        mixing = rng.normal(size=(latent_dim, spec.n_numeric)) / np.sqrt(latent_dim)
        numeric = (
            latent[:, : spec.n_numeric]
            + 0.25 * (latent @ mixing)
            + spec.noise_scale * rng.normal(size=(spec.n_rows, spec.n_numeric))
        )

    # Categorical attributes: quantile-bin latent direction ``n_numeric + j``
    # through a skewed frequency profile (so earlier categorical columns can
    # be informative when the informative prefix extends past the numeric
    # attributes).
    categorical = np.empty((spec.n_rows, 0), dtype=np.int64)
    if spec.n_categorical:
        columns = []
        for j in range(spec.n_categorical):
            direction = latent[:, spec.n_numeric + j]
            cum = _skewed_bins(spec, rng)
            # Normal-quantile edges; scipy-free approximation via numpy's
            # percentiles of the sampled direction keeps frequencies exact.
            edges = np.quantile(direction, cum)
            columns.append(np.searchsorted(edges, direction).astype(np.int64))
        categorical = np.stack(columns, axis=1)

    labels = true_class.copy()
    n_flips = round(spec.label_noise * spec.n_rows)
    if n_flips:
        flip_rows = rng.choice(spec.n_rows, size=n_flips, replace=False)
        shift = rng.integers(1, spec.n_labels, size=n_flips)
        labels[flip_rows] = (labels[flip_rows] + shift) % spec.n_labels

    return Table(numeric, categorical, labels)
