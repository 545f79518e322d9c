"""The array-based attack path against small loop references, bit for bit.

Each reference below is the per-iteration loop the package used before its
attack path worked on whole arrays; the array versions must reproduce it
exactly: CSR structure and values, right-hand sides, estimates, scored
truth, LSQR iterates and iteration counts, and report CSV bytes.
"""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from conftest import make_cfg
from ringadmm.adversary import (
    AttackReport,
    build_colluding_system,
    build_ls_system,
    colluding_attack,
    exact_recursion_attack,
    lsq_attack,
    score_report,
    terminal_backward_attack,
)
from ringadmm.harness import build_problem
from ringadmm.linalg import LsqrResult, SparseSystem, lsqr
from ringadmm.solver import GammaSpec, InitSpec, Variant, run


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return a.tobytes() == b.tobytes()


# ---- loop references ---------------------------------------------------------


def ref_ls_system(tr, last_k=None, kkt_row=True, pin_last_cycle=True):
    """Triplets, per-coordinate rhs, columns and tags, one row at a time."""
    n, rho, p = tr.n_agents, tr.rho, tr.dim
    last = tr.last_iteration if last_k is None else last_k
    acts = {a: [] for a in range(1, n + 1)}
    for k in range(last + 1):
        acts[int(tr.senders[k])].append(k)
    columns, nc = {}, 0
    for a in range(1, n + 1):
        for e in range(len(acts[a]) + 1):
            for which in "xy":
                columns[(a, e, which)] = nc
                nc += 1
    triplets, rhs, tags = [], [[] for _ in range(p)], []

    def add_row(entries, rv, tag):
        r = len(tags)
        triplets.extend((r, c, v) for c, v in entries)
        for ci in range(p):
            rhs[ci].append(float(rv[ci]))
        tags.append(tag)

    zero = np.zeros(p)
    for a in range(1, n + 1):
        add_row([(columns[(a, 0, "x")], 1.0), (columns[(a, 0, "y")], -1.0 / rho)], zero, "init")
        if tr.deterministic_init:
            add_row([(columns[(a, 0, "x")], 1.0)], zero, "init")
            add_row([(columns[(a, 0, "y")], 1.0)], zero, "init")
    epoch = {a: 0 for a in range(1, n + 1)}
    z_prev = np.zeros(p)
    for k in range(last + 1):
        a = int(tr.senders[k])
        e = epoch[a]
        delta = tr.z_values[k] - z_prev
        add_row([(columns[(a, e + 1, "x")], 1.0), (columns[(a, e, "x")], -0.5)],
                0.5 * (n * delta + z_prev), "recursion_x")
        add_row([(columns[(a, e + 1, "y")], 1.0), (columns[(a, e, "y")], -1.0),
                 (columns[(a, e, "x")], rho / 2.0)],
                (rho / 2.0) * (z_prev - n * delta), "recursion_y")
        epoch[a] += 1
        z_prev = tr.z_values[k]
    if kkt_row:
        ep_at_last = {a: 0 for a in range(1, n + 1)}
        for k in range(last):
            ep_at_last[int(tr.senders[k])] += 1
        add_row([(columns[(a, ep_at_last[a], "y")], 1.0) for a in range(1, n + 1)],
                zero, "kkt_sum")
    if pin_last_cycle:
        for j in range(n):
            k = last - j
            a = int(tr.senders[k])
            add_row([(columns[(a, epoch[a], "x")], 1.0)], tr.z_values[k], "convergence_pin")
    return triplets, rhs, columns, tags


def ref_colluding_system(tr, target, y_sum=None, pin=True, g=1.0):
    n, rho, p, last = tr.n_agents, tr.rho, tr.dim, tr.last_iteration
    acts = [k for k in range(last + 1) if tr.senders[k] == target]
    columns, nc = {}, 0
    for e in range(len(acts) + 1):
        for which in "xy":
            columns[(target, e, which)] = nc
            nc += 1
    triplets, rhs, tags = [], [[] for _ in range(p)], []

    def add_row(entries, rv, tag):
        r = len(tags)
        triplets.extend((r, c, v) for c, v in entries)
        for ci in range(p):
            rhs[ci].append(float(rv[ci]))
        tags.append(tag)

    add_row([(columns[(target, 0, "x")], 1.0), (columns[(target, 0, "y")], -1.0 / rho)],
            np.zeros(p), "init")
    for e, k in enumerate(acts):
        z_k = tr.z_before(k)
        delta = tr.z_values[k] - z_k
        add_row([(columns[(target, e + 1, "x")], 1.0),
                 (columns[(target, e, "x")], -1.0 / (1.0 + g))],
                (n * delta + g * z_k) / (1.0 + g), "recursion_x")
        add_row([(columns[(target, e + 1, "y")], 1.0), (columns[(target, e, "y")], -1.0),
                 (columns[(target, e, "x")], rho * g / (1.0 + g))],
                (rho * g / (1.0 + g)) * (z_k - n * delta), "recursion_y")
    if y_sum is not None:
        add_row([(columns[(target, len(acts), "y")], 1.0)], -np.asarray(y_sum, dtype=float),
                "kkt_sum")
    if pin:
        add_row([(columns[(target, len(acts), "x")], 1.0)], tr.z_values[last],
                "convergence_pin")
    return triplets, rhs, columns, tags


def ref_expand(vals_x, vals_y, acts, agents, last_k, p):
    out_x, out_y = {}, {}
    for a in agents:
        xs, ys = np.empty((last_k + 2, p)), np.empty((last_k + 2, p))
        e = 0
        cur_x, cur_y = vals_x[(a, 0)], vals_y[(a, 0)]
        xs[0], ys[0] = cur_x, cur_y
        for k in range(last_k + 1):
            if k in acts[a]:
                e += 1
                cur_x, cur_y = vals_x[(a, e)], vals_y[(a, e)]
            xs[k + 1], ys[k + 1] = cur_x, cur_y
        out_x[a], out_y[a] = xs, ys
    return out_x, out_y


def ref_exact(tr):
    n, rho, p, last = tr.n_agents, tr.rho, tr.dim, tr.last_iteration
    cur_x = {a: np.zeros(p) for a in range(1, n + 1)}
    cur_y = {a: np.zeros(p) for a in range(1, n + 1)}
    vals_x = {(a, 0): cur_x[a].copy() for a in cur_x}
    vals_y = {(a, 0): cur_y[a].copy() for a in cur_y}
    epoch = {a: 0 for a in cur_x}
    acts = {a: [] for a in cur_x}
    z_prev = np.zeros(p)
    for k in range(last + 1):
        a = int(tr.senders[k])
        delta = tr.z_values[k] - z_prev
        x_new = 0.5 * (n * delta + z_prev + cur_x[a])
        y_new = cur_y[a] + 0.5 * rho * (z_prev - n * delta - cur_x[a])
        cur_x[a], cur_y[a] = x_new, y_new
        epoch[a] += 1
        vals_x[(a, epoch[a])], vals_y[(a, epoch[a])] = x_new, y_new
        acts[a].append(k)
        z_prev = tr.z_values[k]
    return ref_expand(vals_x, vals_y, acts, list(cur_x), last, p)


def ref_backward(tr):
    n, rho, p, last = tr.n_agents, tr.rho, tr.dim, tr.last_iteration
    target = int(tr.senders[last])
    acts = [k for k in range(last + 1) if tr.senders[k] == target]
    post = [np.zeros(p) for _ in acts]
    pre = [np.zeros(p) for _ in acts]
    post[-1] = tr.z_values[last].copy()
    for idx in range(len(acts) - 1, -1, -1):
        z_k = tr.z_before(acts[idx])
        delta = tr.z_values[acts[idx]] - z_k
        pre[idx] = 2.0 * post[idx] - n * delta - z_k
        if idx > 0:
            post[idx - 1] = pre[idx]
    vals_x, vals_y = {(target, 0): pre[0]}, {(target, 0): rho * pre[0]}
    y_cur = rho * pre[0]
    for idx, k0 in enumerate(acts):
        z_k = tr.z_before(k0)
        delta = tr.z_values[k0] - z_k
        y_cur = y_cur + 0.5 * rho * (z_k - n * delta - pre[idx])
        vals_x[(target, idx + 1)], vals_y[(target, idx + 1)] = post[idx], y_cur.copy()
    return ref_expand(vals_x, vals_y, {target: acts}, [target], last, p)


def ref_trajectory(history, agent):
    kk, p = history.last_iteration + 2, history.x0.shape[1]
    xs, ys = np.empty((kk, p)), np.empty((kk, p))
    x, y = history.x0[agent - 1], history.y0[agent - 1]
    xs[0], ys[0] = x, y
    for k in range(kk - 1):
        if history.agents[k] == agent:
            x, y = history.x_new[k], history.y_new[k]
        xs[k + 1], ys[k + 1] = x, y
    return xs, ys


def ref_states_at(history, k):
    x, y = history.x0.copy(), history.y0.copy()
    for j in range(min(k, history.last_iteration + 1)):
        a = history.agents[j] - 1
        x[a], y[a] = history.x_new[j], history.y_new[j]
    return x, y


def ref_lsqr(system, tol=1e-10, max_iter=None):
    """The package's LSQR with A' applied as the CSC view `a.T` each time."""
    a = system.matrix()
    b = system.rhs.astype(float)
    m, n = a.shape
    max_iter = 10 * (m + n) if max_iter is None else max_iter
    x = np.zeros(n)
    u = b.copy()
    beta = float(np.linalg.norm(u))
    normb = beta
    if beta == 0.0:
        return LsqrResult(x, 0.0, 0, True, np.array([0.0]))
    u /= beta
    v = a.T @ u
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        return LsqrResult(x, beta, 0, True, np.array([beta]))
    v /= alpha
    w = v.copy()
    phibar, rhobar, anorm_sq = beta, alpha, alpha * alpha
    history, converged, iterations = [beta], False, 0
    for it in range(1, max_iter + 1):
        iterations = it
        u = a @ v - alpha * u
        beta = float(np.linalg.norm(u))
        if beta > 0.0:
            u /= beta
        v = a.T @ u - beta * v
        alpha = float(np.linalg.norm(v))
        if alpha > 0.0:
            v /= alpha
        anorm_sq += alpha * alpha + beta * beta
        rho = math.hypot(rhobar, beta)
        c, s = rhobar / rho, beta / rho
        theta, rhobar = s * alpha, -c * alpha
        phi, phibar = c * phibar, s * phibar
        x += (phi / rho) * w
        w = v - (theta / rho) * w
        history.append(phibar)
        if (phibar <= tol * normb or alpha * abs(c) <= tol * math.sqrt(anorm_sq)
                or (alpha == 0.0 and beta == 0.0)):
            converged = True
            break
    return LsqrResult(x, float(phibar), iterations, converged, np.array(history))


def ref_write_csv(rep, agent, coordinates=None):
    """The report as the csv module writes it: the reference format."""
    fh = io.StringIO()
    fh.write("#schema=1\n")
    w = csv.writer(fh)
    w.writerow(["k", "coordinate", "truth_x", "est_x", "truth_y", "est_y",
                "abs_err_x", "abs_err_y"])
    ex, ey = rep.est_x[agent], rep.est_y[agent]
    tx, ty = rep.truth_x.get(agent), rep.truth_y.get(agent)
    coords = coordinates if coordinates is not None else list(range(1, ex.shape[1] + 1))
    for k in range(ex.shape[0]):
        for c in coords:
            j = c - 1
            row = [k, c]
            if tx is not None:
                row += [repr(float(tx[k, j])), repr(float(ex[k, j])),
                        repr(float(ty[k, j])), repr(float(ey[k, j])),
                        repr(abs(float(ex[k, j] - tx[k, j]))),
                        repr(abs(float(ey[k, j] - ty[k, j])))]
            else:
                row += ["", repr(float(ex[k, j])), "", repr(float(ey[k, j])), "", ""]
            w.writerow(row)
    return fh.getvalue()


# ---- transcripts: cyclic and random-walk, with and without the public zero start


RUNS = {
    "cyclic_zero_start": dict(variant=Variant.IADMM, n_agents=6, max_iters=120),
    "cyclic_noisy": dict(variant=Variant.PIADMM2, sigma=0.01, init=InitSpec.uniform(-1, 1),
                         n_agents=7, max_iters=150),
    "cyclic_gamma": dict(variant=Variant.PIADMM1, gamma=GammaSpec.uniform(0.9, 1.1),
                         init=InitSpec.uniform(-1, 1), n_agents=5, max_iters=100),
    "walk_zero_start": dict(variant=Variant.WADMM_BASELINE, n_agents=6, max_iters=150),
}


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name, over in RUNS.items():
        cfg = make_cfg(eta=0.6, **over)
        graph, problem = build_problem(cfg)
        out[name] = run(problem, graph, cfg.solver_config())
    # the random walk's transcript with the zero start undeclared: ragged
    # epochs without the deterministic-init rows
    walk = out["walk_zero_start"]
    out["walk_undeclared"] = dataclasses.replace(
        walk, transcript=dataclasses.replace(walk.transcript, deterministic_init=False))
    return out


def test_walk_transcript_has_ragged_epochs(runs):
    tr = runs["walk_zero_start"].transcript
    counts = np.bincount(tr.senders, minlength=tr.n_agents + 1)[1:]
    assert counts.min() != counts.max()


def assert_system_equal(ms, triplets, rhs, columns, tags):
    n_rows = len(tags)
    ref = SparseSystem.from_triplets(n_rows, len(columns), triplets, np.array(rhs[0]))
    got, want = ms.systems[0].matrix(), ref.matrix()
    assert ms.shape == (n_rows, len(columns))
    for attr in ("indptr", "indices", "data"):
        assert same_bits(getattr(got, attr), getattr(want, attr)), attr
    assert len(ms.systems) == len(rhs)
    for sysm, ref_rhs in zip(ms.systems, rhs):
        assert same_bits(sysm.rhs, np.array(ref_rhs))
        assert sysm.matrix() is got
    assert ms.columns == columns
    assert list(ms.columns) == list(columns)
    assert ms.row_tags == tags


@pytest.mark.parametrize("name", ["cyclic_zero_start", "cyclic_noisy", "walk_zero_start",
                                  "walk_undeclared"])
@pytest.mark.parametrize("kkt_row", [True, False])
@pytest.mark.parametrize("pin", [True, False])
@pytest.mark.parametrize("cut", [None, "half", "one_cycle"])
def test_ls_system_matches_loop(runs, name, kkt_row, pin, cut):
    tr = runs[name].transcript
    last_k = {None: None, "half": tr.last_iteration // 2, "one_cycle": tr.n_agents - 1}[cut]
    ms = build_ls_system(tr, last_k=last_k, kkt_row=kkt_row, pin_last_cycle=pin)
    assert_system_equal(ms, *ref_ls_system(tr, last_k, kkt_row, pin))
    last = tr.last_iteration if last_k is None else last_k
    assert ms.activations == {a: [k for k in range(last + 1) if tr.senders[k] == a]
                              for a in range(1, tr.n_agents + 1)}


@pytest.mark.parametrize("name", ["cyclic_noisy", "cyclic_gamma", "walk_zero_start"])
@pytest.mark.parametrize("target", [1, 3])
@pytest.mark.parametrize("with_sum", [True, False])
@pytest.mark.parametrize("pin", [True, False])
@pytest.mark.parametrize("g", [1.0, 1.3])
def test_colluding_system_matches_loop(runs, name, target, with_sum, pin, g):
    res = runs[name]
    y_sum = res.history.y_new[-3:].sum(axis=0) if with_sum else None
    ms = build_colluding_system(res.transcript, target, y_sum, pin, g)
    assert_system_equal(ms, *ref_colluding_system(res.transcript, target, y_sum, pin, g))


@pytest.mark.parametrize("name", ["cyclic_zero_start", "cyclic_noisy", "walk_zero_start"])
def test_exact_attack_matches_loop(runs, name):
    tr = runs[name].transcript
    rep = exact_recursion_attack(tr)
    want_x, want_y = ref_exact(tr)
    assert rep.agents == sorted(want_x)
    for a in want_x:
        assert same_bits(rep.est_x[a], want_x[a]) and same_bits(rep.est_y[a], want_y[a])


def test_backward_attack_matches_loop():
    cfg = make_cfg(n_agents=5, max_iters=20_000, stop_eps=1e-4)
    graph, problem = build_problem(cfg)
    tr = run(problem, graph, cfg.solver_config()).transcript
    rep = terminal_backward_attack(tr, eps=1e-4)
    want_x, want_y = ref_backward(tr)
    (target,) = want_x
    assert rep.agents == [target]
    assert same_bits(rep.est_x[target], want_x[target])
    assert same_bits(rep.est_y[target], want_y[target])


@pytest.mark.parametrize("name", ["cyclic_zero_start", "cyclic_noisy", "walk_zero_start"])
def test_history_matches_loop(runs, name):
    history = runs[name].history
    for agent in range(1, history.n_agents + 1):
        for got, want in zip(history.trajectory(agent), ref_trajectory(history, agent)):
            assert same_bits(got, want)
    for k in [-1, 0, 1, 7, history.last_iteration, history.last_iteration + 1, 10**6]:
        for got, want in zip(history.states_at(k), ref_states_at(history, k)):
            assert same_bits(got, want)


@pytest.mark.parametrize("name", ["cyclic_zero_start", "cyclic_noisy", "walk_undeclared"])
@pytest.mark.parametrize("max_iter", [None, 7])
def test_lsqr_with_cached_transpose_matches_loop(runs, name, max_iter):
    ms = build_ls_system(runs[name].transcript, kkt_row=True, pin_last_cycle=True)
    for sysm in ms.systems:
        got, want = lsqr(sysm, max_iter=max_iter), ref_lsqr(sysm, max_iter=max_iter)
        assert same_bits(got.x, want.x)
        assert got.iterations == want.iterations and got.converged == want.converged
        assert same_bits(got.residual_history, want.residual_history)
        assert sysm.transpose() is ms.systems[0].transpose()


@pytest.mark.parametrize("name", ["cyclic_noisy", "walk_undeclared"])
def test_lsq_and_colluding_estimates_match_loop(runs, name):
    res = runs[name]
    tr = res.transcript
    ms = build_ls_system(tr)
    sols = [ref_lsqr(s).x for s in ms.systems]
    vals = {(a, e, w): np.array([sol[c] for sol in sols])
            for (a, e, w), c in ms.columns.items()}
    split = [{(a, e): v for (a, e, w), v in vals.items() if w == which} for which in "xy"]
    want_x, want_y = ref_expand(*split, ms.activations, [2, 4], tr.last_iteration, tr.dim)
    rep = lsq_attack(tr, agents=[2, 4])
    for a in (2, 4):
        assert same_bits(rep.est_x[a], want_x[a]) and same_bits(rep.est_y[a], want_y[a])
    rep = colluding_attack(tr, target=3)
    ms = build_colluding_system(tr, 3)
    sols = [ref_lsqr(s).x for s in ms.systems]
    xs = {(3, e): np.array([sol[ms.columns[(3, e, "x")]] for sol in sols])
          for e in range(len(ms.activations[3]) + 1)}
    ys = {(3, e): np.array([sol[ms.columns[(3, e, "y")]] for sol in sols])
          for e in range(len(ms.activations[3]) + 1)}
    want_x, want_y = ref_expand(xs, ys, ms.activations, [3], tr.last_iteration, tr.dim)
    assert same_bits(rep.est_x[3], want_x[3]) and same_bits(rep.est_y[3], want_y[3])


# ---- report CSV bytes

ODD = [math.nan, -0.0, 0.0, 1e300, -1e-300, 1e-300, -1e300, math.inf, -math.inf,
       0.1, -2.5e-17, 123456789.0]


def odd_report(scored: bool, p: int = 3) -> AttackReport:
    rng = np.random.default_rng(4)
    rep = AttackReport(kind="lsq", n_agents=4, rho=10.0, last_iteration=9)
    rep.est_x[2], rep.est_y[2] = rng.choice(ODD, (11, p)), rng.choice(ODD, (11, p))
    if scored:
        rep.truth_x[2], rep.truth_y[2] = rng.choice(ODD, (11, p)), rng.choice(ODD, (11, p))
        with np.errstate(invalid="ignore"):
            rep.err_x[2] = np.abs(rep.est_x[2] - rep.truth_x[2])
            rep.err_y[2] = np.abs(rep.est_y[2] - rep.truth_y[2])
    return rep


@pytest.mark.parametrize("scored", [True, False])
@pytest.mark.parametrize("coordinates", [None, [1], [3, 1], [1, 2, 3], []])
def test_report_csv_matches_csv_module_byte_for_byte(scored, coordinates):
    rep = odd_report(scored)
    fh = io.StringIO(newline="")
    rep.write_csv(fh, 2, coordinates)
    assert fh.getvalue() == ref_write_csv(rep, 2, coordinates)


@pytest.mark.parametrize("scored", [True, False])
def test_report_csv_repeats_only_bitwise_equal_rows(scored):
    """Rows that compare equal but differ in bits (0.0, -0.0) keep their own text."""
    col = np.array([0.0, 0.0, -0.0, -0.0, 0.0, math.nan, math.nan, -math.nan, 1.0])[:, None]
    rep = AttackReport(kind="lsq", n_agents=3, rho=1.0, last_iteration=6)
    rep.est_x[1], rep.est_y[1] = col.copy(), col.copy()
    if scored:
        rep.truth_x[1], rep.truth_y[1] = col.copy(), col.copy()
        with np.errstate(invalid="ignore"):
            rep.err_x[1] = np.abs(rep.est_x[1] - rep.truth_x[1])
            rep.err_y[1] = np.abs(rep.est_y[1] - rep.truth_y[1])
    fh = io.StringIO(newline="")
    rep.write_csv(fh, 1)
    assert fh.getvalue() == ref_write_csv(rep, 1)


def test_scored_run_report_matches_csv_module(runs):
    res = runs["walk_zero_start"]
    rep = score_report(exact_recursion_attack(res.transcript), res.history)
    for agent in (1, 5):
        fh = io.StringIO(newline="")
        rep.write_csv(fh, agent)
        assert fh.getvalue() == ref_write_csv(rep, agent)
        want = ref_trajectory(res.history, agent)
        assert same_bits(rep.truth_x[agent], want[0]) and same_bits(rep.truth_y[agent], want[1])
