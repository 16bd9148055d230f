import numpy as np
import pytest

from aucseg import (ClassStats, ValidationError, empirical_presence,
                    required_batch_size, simulate_coverage, union_bound)

from _oracles import exact_coverage_failure, required_b_ref, simulate_coverage_per_image


def test_required_batch_size_matches_linear_scan():
    cases = [(3, 0.5, 0.05), (10, 0.2, 0.01), (19, 0.1, 0.001),
             (2, 0.9, 0.1), (40, 0.3, 0.02), (19, 0.01, 0.01)]
    for k, p, d in cases:
        assert required_batch_size(k, p, d) == required_b_ref(k, p, d)


def test_required_batch_size_is_tight():
    for k, p, d in [(19, 0.01, 0.01), (7, 0.15, 0.05), (25, 0.08, 0.02)]:
        b = required_batch_size(k, p, d)
        assert union_bound(k, p, b) <= d
        assert b == 1 or union_bound(k, p, b - 1) > d


def test_required_batch_size_reference_point():
    assert required_batch_size(19, 0.01, 0.01) == 752


def test_required_batch_size_edge_cases():
    assert required_batch_size(5, 1.0, 0.01) == 1
    with pytest.raises(ValidationError):
        required_batch_size(5, 0.0, 0.01)
    with pytest.raises(ValidationError):
        required_batch_size(5, -0.2, 0.01)
    with pytest.raises(ValidationError):
        required_batch_size(5, 0.5, 1.5)
    with pytest.raises(ValidationError):
        required_batch_size(0, 0.5, 0.01)
    for p_min, delta in ((np.nan, 0.01), (0.5, np.nan)):
        with pytest.raises(ValidationError):
            required_batch_size(5, p_min, delta)


def test_union_bound_decreases_in_batch_size():
    vals = [union_bound(12, 0.07, b) for b in range(0, 200, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_simulator_tracks_exact_failure_probability():
    presence = [0.5, 0.3, 0.8]
    for b in (2, 5, 9):
        exact = exact_coverage_failure(presence, b)
        res = simulate_coverage(presence, b, trials=40000, seed=11)
        se = max(np.sqrt(exact * (1 - exact) / res.trials), 1e-9)
        assert abs(res.failure_rate - exact) <= 4 * se
        per_image = simulate_coverage_per_image(presence, b, 40000, seed=11) / 40000
        assert abs(per_image - exact) <= 4 * se


def test_simulator_heterogeneous_presence():
    presence = [1.0, 0.05]
    exact = exact_coverage_failure(presence, 20)
    res = simulate_coverage(presence, 20, trials=30000, seed=3)
    se = np.sqrt(exact * (1 - exact) / res.trials)
    assert abs(res.failure_rate - exact) <= 4 * se


def test_simulator_is_deterministic_and_chunking_invariant(monkeypatch):
    a = simulate_coverage([0.4, 0.6], 7, trials=5000, seed=9)
    b = simulate_coverage([0.4, 0.6], 7, trials=5000, seed=9)
    assert a.failures == b.failures
    # tiny chunks consume the same stream of uniforms, so the count is exact
    import aucseg.coverage as cov
    monkeypatch.setattr(cov, "_CHUNK_CELLS", 64)
    c = simulate_coverage([0.4, 0.6], 7, trials=5000, seed=9)
    assert isinstance(c.failures, int) and c.failures == a.failures


def test_simulator_failures_never_rise_with_batch_size():
    # one seed shares the uniforms across batch sizes: a trial covered at B stays covered
    failures = [simulate_coverage([0.05] * 12, b, trials=10000, seed=4).failures
                for b in range(100, 300, 10)]
    assert all(a >= b for a, b in zip(failures, failures[1:])), failures


def test_simulator_deterministic_edge_cases():
    assert simulate_coverage([1.0, 1.0, 1.0], 3, trials=500, seed=1).failures == 0
    assert simulate_coverage([1.0, 0.0, 0.7], 50, trials=500, seed=1).failures == 500


def test_simulate_coverage_validation():
    with pytest.raises(ValidationError):
        simulate_coverage([1.2], 5, 100)
    with pytest.raises(ValidationError):
        simulate_coverage([0.5], 0, 100)
    with pytest.raises(ValidationError):
        simulate_coverage([0.5], 5, 0)
    with pytest.raises(ValidationError):
        simulate_coverage([], 5, 100)
    with pytest.raises(ValidationError):
        simulate_coverage([np.nan, 0.5], 4, 1000)


@pytest.mark.parametrize("call", [
    lambda: simulate_coverage([0.5, 0.5], 2, 10.5),  # not a bare TypeError
    lambda: simulate_coverage([0.5, 0.5], 2.5, 10),
    lambda: required_batch_size(12.5, 0.05, 0.01),   # not 140
    lambda: union_bound(12, 0.1, 2.5),               # not 9.22
    lambda: union_bound(12.5, 0.1, 2),
], ids=["trials", "sim_batch_size", "required_classes", "bound_batch_size", "bound_classes"])
def test_coverage_counts_must_be_integers(call):
    with pytest.raises(ValidationError):
        call()


def test_empirical_presence():
    stats = ClassStats(per_image_counts=np.array([[3, 0], [1, 2], [0, 5], [2, 2]]),
                       num_classes=2)
    assert empirical_presence(stats).tolist() == [0.75, 0.75]
