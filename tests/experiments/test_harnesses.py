"""Unit tests for the experiment harnesses (scaled way down for CI speed)."""

import numpy as np
import pytest

from repro.core.queries import q2_counts
from repro.experiments.complexity import (
    ALGORITHMS,
    fit_growth_exponent,
    measure_runtime,
    random_instance,
)
from repro.experiments.curves import (
    average_random_curves,
    sweep_validation_size,
    trace_cleaning_curve,
)
from repro.experiments.end_to_end import run_end_to_end
from repro.data.task import build_cleaning_task


@pytest.fixture(scope="module")
def small_task():
    return build_cleaning_task("supreme", n_train=40, n_val=8, n_test=60, seed=0)


class TestEndToEnd:
    def test_result_is_internally_consistent(self):
        result = run_end_to_end("supreme", n_train=40, n_val=8, n_test=60, seed=0)
        assert result.dataset == "supreme"
        assert 0.0 <= result.default_accuracy <= 1.0
        assert 0.0 <= result.ground_truth_accuracy <= 1.0
        assert 0.0 <= result.cp_clean_examples_cleaned <= 1.0
        assert result.raw["n_cleaned"] <= result.raw["n_dirty"]

    def test_cp_clean_reaches_full_certainty(self):
        result = run_end_to_end("supreme", n_train=40, n_val=8, n_test=60, seed=0)
        assert result.raw["cp_fraction_final"] == 1.0


class TestCurves:
    def test_cpclean_curve_shapes(self, small_task):
        curve = trace_cleaning_curve(small_task, strategy="cpclean")
        n = len(curve.fraction_cleaned)
        assert len(curve.cp_fraction) == n
        assert len(curve.gap_closed) == n
        assert curve.fraction_cleaned[0] == 0.0
        assert curve.cp_fraction[-1] == 1.0

    def test_cp_fraction_never_decreases_much(self, small_task):
        curve = trace_cleaning_curve(small_task, strategy="cpclean")
        # CP'ed fraction is monotone under truthful cleaning.
        diffs = np.diff(curve.cp_fraction)
        assert np.all(diffs >= -1e-12)

    def test_random_curve_averaging_pads_runs(self, small_task):
        merged = average_random_curves(small_task, n_runs=2, seed=0)
        assert merged.strategy == "random"
        assert len(merged.cp_fraction) == len(merged.gap_closed)
        assert merged.cp_fraction[-1] == pytest.approx(1.0)

    def test_unknown_strategy(self, small_task):
        with pytest.raises(ValueError, match="strategy"):
            trace_cleaning_curve(small_task, strategy="psychic")

    def test_validation_size_sweep(self):
        results = sweep_validation_size(
            "supreme", val_sizes=[4, 8], n_train=40, n_test=60, seed=0
        )
        assert [r.n_val for r in results] == [4, 8]
        for r in results:
            assert 0.0 <= r.examples_cleaned_fraction <= 1.0


class TestComplexity:
    def test_random_instance_shape(self):
        dataset, t = random_instance(10, 3, n_labels=2, n_features=4, seed=0)
        assert dataset.n_rows == 10
        assert dataset.candidate_counts().tolist() == [3] * 10
        assert t.shape == (4,)

    @pytest.mark.parametrize("algorithm", ["ss-engine", "minmax"])
    def test_measure_runtime_returns_positive(self, algorithm):
        point = measure_runtime(algorithm, n_rows=20, m_candidates=2, k=3, repeats=1)
        assert point.seconds > 0
        assert point.algorithm == algorithm

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_figure4_engine_matches_the_served_path(self, algorithm):
        # The Fig. 4 table is where the non-default engines live now; each
        # must count exactly what a planned query answers.
        engine = ALGORITHMS[algorithm]
        for seed, n_labels in enumerate((2, 2, 3, 3)):
            dataset, t = random_instance(6, 2, n_labels=n_labels, seed=seed)
            for k in (1, 3):
                assert engine(dataset, t, k=k) == q2_counts(dataset, t, k=k)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            measure_runtime("quantum", n_rows=5, m_candidates=2)

    def test_fit_growth_exponent_on_synthetic_data(self):
        sizes = [10, 20, 40, 80]
        quadratic = [s**2 * 1e-6 for s in sizes]
        assert fit_growth_exponent(sizes, quadratic) == pytest.approx(2.0, abs=0.01)
        linear = [s * 1e-6 for s in sizes]
        assert fit_growth_exponent(sizes, linear) == pytest.approx(1.0, abs=0.01)

    def test_fit_growth_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_growth_exponent([10], [0.1])
