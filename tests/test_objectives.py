import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringadmm.config import ExperimentConfig
from ringadmm.harness import build_objectives
from ringadmm.objectives import (
    Dataset,
    LogisticObjective,
    LogisticStack,
    OptimizerError,
    ProxUnsupportedError,
    RidgeObjective,
    RidgeStack,
    _sigmoid,
    centralized_optimum,
    generate_logistic_data,
    generate_ridge_data,
)
from ringadmm.solver import XUpdateMode, x_update


def fd_gradient(obj, x, h=1e-5):
    p = len(x)
    g = np.zeros(p)
    for j in range(p):
        e = np.zeros(p)
        e[j] = h
        g[j] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
    return g


class TestRidge:
    def test_zero_residual(self):
        obj = RidgeObjective(Dataset(np.array([[1.0, 0.0]]), np.array([0.0])))
        assert obj.value(np.zeros(2)) == 0.0

    def test_unit_residual(self):
        obj = RidgeObjective(Dataset(np.array([[1.0, 0.0]]), np.array([1.0])))
        assert obj.value(np.zeros(2)) == pytest.approx(1.0, abs=0)

    def test_value_matches_naive_sum(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.uniform(size=(3, 2)), rng.uniform(size=3))
        obj = RidgeObjective(data)
        x = rng.standard_normal(2)
        naive = sum(
            (float(x @ o) - float(t)) ** 2 for o, t in zip(data.features, data.targets)
        ) / 3
        assert obj.value(x) == pytest.approx(naive, abs=1e-12)

    def test_prox_of_zero_function(self):
        # all-zero data: the loss vanishes identically
        obj = RidgeObjective(Dataset(np.zeros((2, 2)), np.zeros(2)))
        z = np.array([1.0, -2.0])
        y = np.array([0.5, 0.25])
        assert np.allclose(obj.prox(z, y, 4.0), z + y / 4.0, atol=1e-14)

    def test_prox_zeroes_prox_objective_gradient(self):
        rng = np.random.default_rng(8)
        obj = RidgeObjective(Dataset(rng.uniform(size=(6, 2)), rng.uniform(size=6)))
        z = np.zeros(2)
        y = np.zeros(2)
        x = obj.prox(z, y, 3.0)
        # stationarity of f(x) + (rho/2)||z - x + y/rho||^2
        grad = obj.gradient(x) + 3.0 * (x - z - y / 3.0)
        assert np.linalg.norm(grad) <= 1e-10

    def test_prox_single_sample_hand_solved(self):
        obj = RidgeObjective(Dataset(np.array([[1.0, 0.0]]), np.array([1.0])))
        x = obj.prox(np.zeros(2), np.zeros(2), 2.0)
        assert np.allclose(x, [0.5, 0.0], atol=1e-14)

    def test_lipschitz_single_sample(self):
        obj = RidgeObjective(Dataset(np.array([[1.0, 0.0]]), np.array([0.0])))
        assert obj.lipschitz_bound() == pytest.approx(2.0, abs=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(11)
        obj = RidgeObjective(generate_ridge_data(12, 3, seed=4))
        for _ in range(100):
            x = rng.standard_normal(3)
            g = obj.gradient(x)
            rel = np.linalg.norm(fd_gradient(obj, x) - g) / max(np.linalg.norm(g), 1e-12)
            assert rel <= 1e-9


def reference_ridge(data: Dataset) -> dict:
    """One agent's ridge parameters built on their own: H, c, the constant,
    the clipped eigenvalues, the eigenvectors and the curvature bound."""
    o, t, b = data.features, data.targets, data.n_samples
    hessian = (2.0 / b) * (o.T @ o)
    lam, vecs = np.linalg.eigh(hessian)
    lam = np.maximum(lam, 0.0)
    return {"hessian": hessian, "linear": (2.0 / b) * (o.T @ t),
            "const": float(np.mean(t**2)), "eigvals": lam, "eigvecs": vecs,
            "lipschitz": float(lam[-1])}


def stacked_ridge(f: RidgeObjective) -> dict:
    q, a = f.params, f.row
    return {"hessian": f.hessian, "linear": f.linear, "const": float(q.const[a]),
            "eigvals": q.eigvals[a], "eigvecs": q.eigvecs[a],
            "lipschitz": f.lipschitz_bound()}


def as_bytes(params: dict) -> dict:
    return {k: (np.shape(v), np.asarray(v, dtype=float).tobytes()) for k, v in params.items()}


class TestStackedRidgeBuild:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_stack_matches_the_per_agent_build(self, p, n):
        for seed, b in [(0, 30), (7, 30), (123, 4), (2024, 1)]:
            datasets = [generate_ridge_data(b, p, seed=[seed, a]) for a in range(1, n + 1)]
            objs = RidgeObjective.stack(datasets)
            for a, (f, data) in enumerate(zip(objs, datasets)):
                want = as_bytes(reference_ridge(data))
                assert as_bytes(stacked_ridge(f)) == want
                assert as_bytes(stacked_ridge(RidgeObjective(data))) == want
                assert f.params is objs[0].params and f.row == a

    def test_non_finite_data_rejected(self):
        good = generate_ridge_data(5, 2, seed=1)
        bad = Dataset(np.array([[np.inf, 1.0]] * 5), np.ones(5))
        with pytest.raises(ValueError, match="^ridge data must be finite$"):
            RidgeObjective(bad)
        with pytest.raises(ValueError, match="^ridge data must be finite$"):
            RidgeObjective.stack([good, bad, good])

    def test_indefinite_hessian_rejected(self, monkeypatch):
        # O'O is PSD, so an eigh that returns a negative eigenvalue stands in
        eigh = np.linalg.eigh

        def shifted(h):
            lam, vecs = eigh(h)
            lam[1:, 0] = -0.5  # every agent after the first
            return lam, vecs

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        data = [generate_ridge_data(5, 2, seed=[1, a]) for a in (1, 2, 3)]
        msg = re.escape("ridge Hessian is not positive semidefinite (-5.000e-01)")
        with pytest.raises(ValueError, match=msg):
            RidgeObjective.stack(data)
        RidgeObjective(data[1])  # a stack of one has no agent after the first


class TestLogistic:
    def test_value_at_zero_is_log_two(self):
        obj = LogisticObjective(generate_logistic_data(50, 2, 1, 2))
        assert obj.value(np.zeros(2)) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_at_zero_single_sample(self):
        obj = LogisticObjective(Dataset(np.array([[1.0, 0.0]]), np.array([1.0])))
        assert np.allclose(obj.gradient(np.zeros(2)), [-0.5, 0.0], atol=1e-15)

    def test_lipschitz_single_sample(self):
        obj = LogisticObjective(Dataset(np.array([[2.0, 0.0]]), np.array([1.0])))
        assert obj.lipschitz_bound() == pytest.approx(1.0, abs=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(13)
        obj = LogisticObjective(generate_logistic_data(20, 3, 7, 8))
        for _ in range(100):
            x = rng.standard_normal(3)
            g = obj.gradient(x)
            rel = np.linalg.norm(fd_gradient(obj, x) - g) / max(np.linalg.norm(g), 1e-12)
            assert rel <= 1e-5

    def test_large_margins_stay_finite(self):
        obj = LogisticObjective(Dataset(np.array([[1.0, 0.0]]), np.array([1.0])))
        x = np.array([1e4, 0.0])
        assert np.isfinite(obj.value(x))
        assert np.isfinite(obj.value(-x))
        assert obj.value(-x) == pytest.approx(1e4, rel=1e-10)

    def test_prox_unsupported(self):
        obj = LogisticObjective(generate_logistic_data(5, 2, 1, 2))
        with pytest.raises(ProxUnsupportedError, match="first_order"):
            obj.prox(np.zeros(2), np.zeros(2), 1.0)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            LogisticObjective(Dataset(np.ones((2, 2)), np.array([1.0, 0.5])))


def logistic_columns(n: int, runs: int, b: int, p: int, seed: int) -> list[list]:
    """columns[r][a]: run r's logistic objective of agent a.  Features span
    many scales; the first sample of every agent is all zeros, so its
    margin is 0 with the sign of its label."""
    rng = np.random.default_rng(seed)
    columns = []
    for _ in range(runs):
        column = []
        for _ in range(n):
            feats = rng.standard_normal((b, p)) * 10.0 ** rng.uniform(-3, 3, size=(b, 1))
            feats[0] = 0.0
            column.append(LogisticObjective(Dataset(feats, rng.choice([-1.0, 1.0], size=b))))
        columns.append(column)
    return columns


def one_by_one(columns, sel, x, method: str) -> np.ndarray:
    """Each picked objective's own method at its own state, stacked."""
    if isinstance(sel, tuple):
        agents, runs = np.broadcast_arrays(*sel)
    else:
        runs = np.arange(len(columns))
        agents = np.full_like(runs, sel)
    out = np.array([getattr(columns[runs[i]][agents[i]], method)(x[i])
                    for i in np.ndindex(agents.shape)])
    return out.reshape(agents.shape + out.shape[1:])


class TestLogisticStack:
    """The stacked gradient and value equal the objectives' own, bit for bit."""

    N, B_SAMPLES, P = 4, 7, 3

    def states(self, shape, rng) -> np.ndarray:
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-2, 3, size=shape[:-1] + (1,))
        x.reshape(-1, shape[-1])[0] = 0.0  # the deterministic start
        x.reshape(-1, shape[-1])[-1] = (1e4, -1e4, 1e4)[: shape[-1]]  # margins near +-1e4
        return x

    def selections(self, runs: int, rng):
        n = self.N
        walk = rng.integers(0, n, size=runs)
        return [
            ("cyclic", 2, (runs, self.P)),
            ("walk", (walk, np.arange(runs)), (runs, self.P)),
            ("walk chunk", (rng.integers(0, n, size=(runs, 5)), np.arange(runs)[:, None]),
             (runs, 5, self.P)),
            ("start", (np.arange(n), np.arange(runs)[:, None]), (runs, n, self.P)),
        ]

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_objectives(self, runs, seed):
        rng = np.random.default_rng([seed, runs])
        columns = logistic_columns(self.N, runs, self.B_SAMPLES, self.P, seed)
        stack = LogisticStack(columns)
        for name, sel, shape in self.selections(runs, rng):
            x = self.states(shape, rng)
            margins = stack.signed[sel] @ x[..., None]
            assert np.any(margins == 0.0) and np.abs(margins).max() >= 1e4
            for method in ("gradient", "value"):
                got = getattr(stack, method)(sel, x)
                want = one_by_one(columns, sel, x, method)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, method)


def ridge_columns(n: int, runs: int, b: int, p: int, seed: int) -> list[list]:
    """columns[r][a]: run r's ridge objective of agent a, one stack per run."""
    return [RidgeObjective.stack([generate_ridge_data(b, p, [seed, r, a]) for a in range(n)])
            for r in range(runs)]


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("stack_of, mode", [
    (RidgeStack, XUpdateMode.EXACT_PROX),
    (RidgeStack, XUpdateMode.FIRST_ORDER),
    (LogisticStack, XUpdateMode.FIRST_ORDER),
])
def test_x_update_of_a_stack_equals_the_objectives(stack_of, mode, runs):
    """x_update(stack, ..., sel) equals x_update of each picked objective
    alone, bit for bit, on the cyclic agent slice and the walk gather."""
    n, p = TestLogisticStack.N, TestLogisticStack.P
    make = ridge_columns if stack_of is RidgeStack else logistic_columns
    columns = make(n, runs, TestLogisticStack.B_SAMPLES, p, runs)
    stack = stack_of(columns)
    rng = np.random.default_rng([runs, mode == XUpdateMode.EXACT_PROX])
    walk = rng.integers(0, n, size=runs)
    for sel, agents in ((2, np.full(runs, 2)), ((walk, np.arange(runs)), walk)):
        x, y, z = rng.standard_normal((3, runs, p)) * 10.0
        rho_eff = rng.uniform(0.5, 20.0, size=(runs, 1))
        got = x_update(stack, x, y, z, rho_eff, mode, sel)
        want = np.array([x_update(columns[r][agents[r]], x[r], y[r], z[r], rho_eff[r, 0], mode)
                         for r in range(runs)])
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), sel


def two_branch_sigmoid(u: np.ndarray) -> np.ndarray:
    """The sigmoid as first written: one branch per sign of u."""
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_equals_the_two_branch_form():
    rng = np.random.default_rng(31)
    tiny = np.finfo(float).tiny
    special = np.array([0.0, np.inf, np.nan, 745.2, 1e4, 5e-324, tiny / 3, tiny, 709.0, 36.8])
    wide = rng.choice([-1.0, 1.0], size=200_000) * 10.0 ** rng.uniform(-320, 308, size=200_000)
    dense = rng.uniform(-800.0, 800.0, size=200_000)
    u = np.concatenate([special, -special, wide, dense])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(u)
    want = two_branch_sigmoid(u)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.isnan(got), np.isnan(u))
    number = ~np.isnan(u)  # a NaN's sign bit carries no value
    assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lipschitz_dominates_difference_quotients(seed):
    rng = np.random.default_rng(seed)
    ridge = RidgeObjective(generate_ridge_data(10, 2, seed))
    logi = LogisticObjective(generate_logistic_data(10, 2, seed, seed + 1))
    for obj in (ridge, logi):
        bound = obj.lipschitz_bound()
        for _ in range(40):
            u = rng.standard_normal(2)
            v = rng.standard_normal(2)
            num = np.linalg.norm(obj.gradient(u) - obj.gradient(v))
            assert num <= bound * np.linalg.norm(u - v) + 1e-12


class TestDataGeneration:
    def test_ridge_shapes_and_reproducibility(self):
        a = generate_ridge_data(30, 2, seed=99)
        b = generate_ridge_data(30, 2, seed=99)
        assert a.features.shape == (30, 2)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_ridge_uniform_mean(self):
        ds = generate_ridge_data(10_000, 2, seed=1)
        assert abs(ds.features.mean() - 0.5) <= 0.02
        assert abs(ds.targets.mean() - 0.5) <= 0.02

    def test_logistic_matches_documented_recipe(self):
        ds = generate_logistic_data(64, 3, planted_seed=5, data_seed=6)
        planted = np.random.default_rng(5).standard_normal(3)
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((64, 3))
        v = rng.uniform(0.0, 1.0, size=64)
        probs = 1.0 / (1.0 + np.exp(-feats @ planted))
        labels = np.where(v <= probs, 1.0, -1.0)
        assert np.array_equal(ds.features, feats)
        assert np.array_equal(ds.targets, labels)

    def test_logistic_balanced_for_zero_model(self):
        # recipe with a zero weight vector: each label is a fair coin
        rng = np.random.default_rng(21)
        v = rng.uniform(size=10_000)
        labels = np.where(v <= 0.5, 1.0, -1.0)
        assert abs(np.mean(labels == 1.0) - 0.5) <= 0.02

    def test_logistic_negation_symmetry(self):
        # negating the hidden model and all features fixes every label
        rng = np.random.default_rng(22)
        planted = rng.standard_normal(2)
        feats = rng.standard_normal((500, 2))
        v = rng.uniform(size=500)
        def labels(o, x):
            return np.where(v <= 1.0 / (1.0 + np.exp(-(o @ x))), 1.0, -1.0)
        assert np.array_equal(labels(feats, planted), labels(-feats, -planted))


class TestCentralizedOptimum:
    def test_ridge_shared_sample(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
        objs = [RidgeObjective(data) for _ in range(4)]
        x = centralized_optimum(objs)
        grad = sum(f.gradient(x) for f in objs)
        assert np.linalg.norm(grad) <= 1e-12

    def test_ridge_interpolating_min_norm(self):
        objs = [RidgeObjective(Dataset(np.array([[1.0, 0.0]]), np.array([1.0])))]
        x = centralized_optimum(objs)
        assert objs[0].value(x) <= 1e-20
        assert np.allclose(x, [1.0, 0.0], atol=1e-10)

    def test_ridge_random_instances(self):
        objs = [RidgeObjective(generate_ridge_data(30, 2, seed=i)) for i in range(5)]
        x = centralized_optimum(objs)
        grad = sum(f.gradient(x) for f in objs)
        assert np.linalg.norm(grad) <= 1e-10

    def test_logistic_gradient_descent(self):
        objs = [
            LogisticObjective(generate_logistic_data(40, 2, 3, 100 + i))
            for i in range(4)
        ]
        x = centralized_optimum(objs, tol=1e-12)
        grad = sum(f.gradient(x) for f in objs)
        assert np.linalg.norm(grad) <= 1e-12

    def test_logistic_symmetric_labels_give_small_optimum(self):
        # fair-coin labels (hidden model = 0) leave no direction to prefer
        rng = np.random.default_rng(30)
        feats = rng.standard_normal((4000, 2))
        v = rng.uniform(size=4000)
        labels = np.where(v <= 0.5, 1.0, -1.0)
        objs = [LogisticObjective(Dataset(feats, labels))]
        x = centralized_optimum(objs, tol=1e-12)
        assert np.linalg.norm(sum(f.gradient(x) for f in objs)) <= 1e-12
        assert np.linalg.norm(x) <= 0.1

    def test_nonconvergence_raises(self):
        objs = [LogisticObjective(generate_logistic_data(40, 2, 3, 7))]
        with pytest.raises(OptimizerError, match="gradient norm"):
            centralized_optimum(objs, tol=1e-12, max_iters=3)


@pytest.mark.parametrize("data_seed", [8, 75])
def test_logistic_optimum_below_rounding_of_the_objective(data_seed):
    # on these seeds Armijo's decrease falls below the rounding of the summed
    # objective one step before the tolerance, where backtracking used to stall
    cfg = ExperimentConfig(problem="logistic", n_agents=10, seed_data=data_seed)
    objs = build_objectives(cfg)
    x = centralized_optimum(objs, tol=1e-12)
    assert np.linalg.norm(sum(f.gradient(x) for f in objs)) <= 1e-12
