"""Named dataset recipes standing in for the paper's four tables (Table 1).

========  ==========  =========  ========  =====================================
recipe    paper rows  #features  missing   character
========  ==========  =========  ========  =====================================
supreme   3052        7          20% syn.  well-separated, GT accuracy ~0.97
bank      3192        8          20% syn.  hard, GT accuracy ~0.64
puma      8192        8          20% syn.  moderate, GT accuracy ~0.79
baby      3042        7          real      mixed-type products, brand missing
========  ==========  =========  ========  =====================================

The originals are not redistributable / not available offline; these
recipes regenerate tables of the same shape and headline difficulty: what
CP queries and CPClean are sensitive to is the row/feature count, the
missingness pattern and how well the classes separate, not the original
values. Every recipe accepts a
``scale`` factor so experiments run at laptop scale by default while the
full Table-1 row counts remain reachable (``scale=1.0``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synth import SyntheticSpec, generate_table
from repro.data.table import Table
from repro.utils.rng import ensure_rng

__all__ = ["RecipeInfo", "RECIPES", "make_table", "recipe_names"]


@dataclass(frozen=True)
class RecipeInfo:
    """Static description of one dataset recipe.

    ``injection_kwargs`` holds the recipe's MNAR-injection parameters
    (cells per dirty row, value bias/mode, importance sharpening) that were
    calibrated so the GroundTruth-vs-DefaultCleaning accuracy profile at
    laptop scale matches the paper's Table 2 shape.
    """

    name: str
    paper_rows: int
    n_numeric: int
    n_categorical: int
    error_type: str  # "synthetic" or "real"-like structural missingness
    paper_missing_rate: float
    spec_kwargs: dict
    injection_kwargs: dict

    @property
    def n_features(self) -> int:
        return self.n_numeric + self.n_categorical


RECIPES: dict[str, RecipeInfo] = {
    # Supreme (Simonoff): very separable; highest headline accuracy.
    "supreme": RecipeInfo(
        name="supreme",
        paper_rows=3052,
        n_numeric=7,
        n_categorical=0,
        error_type="synthetic",
        paper_missing_rate=0.20,
        spec_kwargs=dict(
            structure="concentric",
            class_separation=5.5,
            informative_fraction=0.3,
            label_noise=0.01,
            noise_scale=0.25,
            nuisance_scale=0.35,
        ),
        injection_kwargs=dict(
            cells_per_row=2, value_bias=2.5, value_mode="extreme", importance_sharpness=2.0
        ),
    ),
    # Bank (Delve): hard, low headline accuracy.
    "bank": RecipeInfo(
        name="bank",
        paper_rows=3192,
        n_numeric=8,
        n_categorical=0,
        error_type="synthetic",
        paper_missing_rate=0.20,
        spec_kwargs=dict(
            structure="concentric",
            class_separation=2.4,
            informative_fraction=0.3,
            label_noise=0.15,
            noise_scale=0.3,
            nuisance_scale=0.4,
        ),
        injection_kwargs=dict(
            cells_per_row=2, value_bias=2.5, value_mode="extreme", importance_sharpness=2.0
        ),
    ),
    # Puma (Delve robot-arm dynamics): moderate difficulty, largest table.
    "puma": RecipeInfo(
        name="puma",
        paper_rows=8192,
        n_numeric=8,
        n_categorical=0,
        error_type="synthetic",
        paper_missing_rate=0.20,
        spec_kwargs=dict(
            structure="concentric",
            class_separation=3.2,
            informative_fraction=0.3,
            label_noise=0.10,
            noise_scale=0.25,
            nuisance_scale=0.4,
        ),
        injection_kwargs=dict(
            cells_per_row=2, value_bias=2.5, value_mode="extreme", importance_sharpness=2.0
        ),
    ),
    # BabyProduct (Magellan scrape): mixed types; categorical brand-like
    # column with a skewed frequency profile carries part of the signal,
    # and the (lower) missing rate reflects the real scraper errors.
    "babyproduct": RecipeInfo(
        name="babyproduct",
        paper_rows=3042,
        n_numeric=4,
        n_categorical=3,
        error_type="real",
        paper_missing_rate=0.118,
        spec_kwargs=dict(
            structure="concentric",
            class_separation=3.2,
            informative_fraction=0.7,
            label_noise=0.15,
            noise_scale=0.25,
            nuisance_scale=0.4,
            categories_per_column=9,
            category_skew=1.8,
        ),
        injection_kwargs=dict(
            cells_per_row=3, value_bias=2.5, value_mode="extreme", importance_sharpness=2.0
        ),
    ),
}


def recipe_names() -> list[str]:
    """The four recipe names in the paper's Table-1 order."""
    return ["babyproduct", "supreme", "bank", "puma"]


def make_table(
    recipe: str,
    scale: float = 1.0,
    n_rows: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> tuple[Table, RecipeInfo]:
    """Generate a complete table for ``recipe``.

    ``n_rows`` overrides the row count directly; otherwise
    ``round(scale * paper_rows)`` rows are generated.
    """
    if recipe not in RECIPES:
        raise ValueError(f"unknown recipe {recipe!r}; available: {sorted(RECIPES)}")
    info = RECIPES[recipe]
    rng = ensure_rng(seed)
    rows = int(n_rows) if n_rows is not None else max(30, round(scale * info.paper_rows))
    spec = SyntheticSpec(
        n_rows=rows,
        n_numeric=info.n_numeric,
        n_categorical=info.n_categorical,
        **info.spec_kwargs,
    )
    return generate_table(spec, rng), info
