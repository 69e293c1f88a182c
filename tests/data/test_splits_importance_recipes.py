"""Unit tests for splitting, feature importance, and the dataset recipes."""

import numpy as np
import pytest

from repro.data.importance import feature_importances
from repro.data.recipes import RECIPES, make_table, recipe_names
from repro.data.splits import train_val_test_split
from repro.data.synth import SyntheticSpec, generate_table


class TestSplits:
    def test_sizes(self):
        table = generate_table(SyntheticSpec(n_rows=100, n_numeric=2, n_categorical=0), seed=0)
        splits = train_val_test_split(table, n_val=10, n_test=20, seed=0)
        assert splits.val.n_rows == 10
        assert splits.test.n_rows == 20
        assert splits.train.n_rows == 70

    def test_explicit_train_size(self):
        table = generate_table(SyntheticSpec(n_rows=100, n_numeric=2, n_categorical=0), seed=0)
        splits = train_val_test_split(table, n_val=10, n_test=20, n_train=30, seed=0)
        assert splits.train.n_rows == 30

    def test_disjoint_rows(self):
        table = generate_table(SyntheticSpec(n_rows=60, n_numeric=1, n_categorical=0), seed=1)
        # tag rows by their (unique with prob 1) numeric value
        splits = train_val_test_split(table, n_val=10, n_test=10, seed=1)
        values = np.concatenate(
            [splits.train.numeric[:, 0], splits.val.numeric[:, 0], splits.test.numeric[:, 0]]
        )
        assert len(np.unique(values)) == 60

    def test_oversized_split_rejected(self):
        table = generate_table(SyntheticSpec(n_rows=20, n_numeric=1, n_categorical=0), seed=0)
        with pytest.raises(ValueError, match="cannot split"):
            train_val_test_split(table, n_val=10, n_test=10, n_train=10)

    def test_deterministic(self):
        table = generate_table(SyntheticSpec(n_rows=50, n_numeric=1, n_categorical=0), seed=0)
        a = train_val_test_split(table, n_val=5, n_test=5, seed=3)
        b = train_val_test_split(table, n_val=5, n_test=5, seed=3)
        assert np.array_equal(a.train.numeric, b.train.numeric)


class TestFeatureImportances:
    def test_returns_probability_vector(self):
        table = generate_table(SyntheticSpec(n_rows=150, n_numeric=3, n_categorical=1), seed=0)
        imp = feature_importances(table, seed=0)
        assert imp.shape == (4,)
        assert np.all(imp > 0)
        assert imp.sum() == pytest.approx(1.0)

    def test_informative_attribute_dominates(self):
        # One highly separating attribute, rest pure noise.
        rng = np.random.default_rng(0)
        n = 300
        labels = rng.integers(0, 2, size=n)
        informative = labels * 8.0 + rng.normal(size=n) * 0.3
        noise = rng.normal(size=(n, 3))
        from repro.data.table import Table

        table = Table(
            np.column_stack([informative, noise]), np.zeros((n, 0), dtype=np.int64), labels
        )
        imp = feature_importances(table, seed=0)
        assert imp[0] == imp.max()
        assert imp[0] > 0.4

    def test_dirty_table_rejected(self):
        from repro.data.missingness import inject_mcar

        table = generate_table(SyntheticSpec(n_rows=80, n_numeric=2, n_categorical=0), seed=0)
        dirty = inject_mcar(table, row_rate=0.3, seed=0)
        with pytest.raises(ValueError, match="complete"):
            feature_importances(dirty)


class TestRecipes:
    def test_recipe_names_cover_table1(self):
        assert set(recipe_names()) == {"babyproduct", "supreme", "bank", "puma"}

    @pytest.mark.parametrize("recipe", list(RECIPES))
    def test_generated_table_matches_info(self, recipe):
        table, info = make_table(recipe, n_rows=80, seed=0)
        assert table.n_rows == 80
        assert table.n_numeric == info.n_numeric
        assert table.n_categorical == info.n_categorical
        assert table.n_features == info.n_features
        assert table.missing_rate() == 0.0

    def test_scale_controls_row_count(self):
        table, info = make_table("supreme", scale=0.05, seed=0)
        assert table.n_rows == round(0.05 * info.paper_rows)

    def test_unknown_recipe(self):
        with pytest.raises(ValueError, match="unknown recipe"):
            make_table("imagenet")

    def test_paper_row_counts_match_table1(self):
        assert RECIPES["babyproduct"].paper_rows == 3042
        assert RECIPES["supreme"].paper_rows == 3052
        assert RECIPES["bank"].paper_rows == 3192
        assert RECIPES["puma"].paper_rows == 8192

    def test_paper_missing_rates(self):
        assert RECIPES["babyproduct"].paper_missing_rate == pytest.approx(0.118)
        for name in ("supreme", "bank", "puma"):
            assert RECIPES[name].paper_missing_rate == pytest.approx(0.20)


class TestImportancesUnderVectorisedPredict:
    @pytest.mark.parametrize("recipe", ["supreme", "babyproduct"])
    def test_unchanged_against_the_per_point_predict(self, recipe, monkeypatch):
        from repro.core.knn import KNNClassifier

        table, _ = make_table(recipe, n_rows=400, seed=1)
        vectorised = feature_importances(table, seed=2)

        def predict_loop(self, test_features):
            return np.array(
                [self.predict_one(t) for t in test_features], dtype=np.int64
            )

        monkeypatch.setattr(KNNClassifier, "predict", predict_loop)
        assert np.array_equal(vectorised, feature_importances(table, seed=2))
