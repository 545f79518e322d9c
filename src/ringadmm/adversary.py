"""Passive attacks that try to reconstruct per-agent states from the token
transcript alone.

Against the deterministic all-zero start the token differences invert
exactly: each iteration contributes two linear equations in the two values
the active agent just produced, so the whole run unrolls forward.  Against
randomized starts the same relations only yield an under-determined linear
system; the attacks then assume a unit step scale, optionally add the
stationarity row (sum of duals is zero) and pin the last observed cycle to
the token, and take the least-squares solution.

Every attack works on per-iteration tables: the active agent, its epoch (how
often it was active before), and the token before and the token difference.
An agent's states are constant between its own activations, so each attack
estimates one value per (agent, epoch): a slot.  Agent a's epoch e sits in
slot first[a] + e, with the agents' slot ranges laid out one after another.

Ground truth enters only through `score_report`, never through estimation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .linalg import SparseSystem, lsqr
from .records import CSV_EOL, SCHEMA_LINE, StateHistory, Transcript

REPORT_COLUMNS = ["k", "coordinate", "truth_x", "est_x", "truth_y", "est_y",
                  "abs_err_x", "abs_err_y"]


class AttackPreconditionError(RuntimeError):
    """The transcript does not satisfy the attack's stated precondition."""


@dataclass
class AttackReport:
    """Per-iteration state estimates for one or more agents.

    est_x[agent] has shape (K+2, p): row k is the estimate of that agent's
    x at the start of iteration k, plus the post-final state at K+1.
    Truth and absolute-error arrays are filled by `score_report` only.
    """

    kind: str
    n_agents: int
    rho: float
    last_iteration: int
    est_x: dict[int, np.ndarray] = field(default_factory=dict)
    est_y: dict[int, np.ndarray] = field(default_factory=dict)
    truth_x: dict[int, np.ndarray] = field(default_factory=dict)
    truth_y: dict[int, np.ndarray] = field(default_factory=dict)
    err_x: dict[int, np.ndarray] = field(default_factory=dict)
    err_y: dict[int, np.ndarray] = field(default_factory=dict)
    dims: tuple[int, int] | None = None
    residual_norms: list[float] = field(default_factory=list)
    lsqr_converged: bool = True
    init_assumption_violated: bool = False
    notes: str = ""

    @property
    def agents(self) -> list[int]:
        return sorted(self.est_x)

    def gradient_estimates(self, agent: int, activations: list[int]) -> np.ndarray:
        """Estimated grad f_agent at its post-activation states: identical to
        the dual estimates there, since the exact x-step equates the two."""
        return self.est_y[agent][[k + 1 for k in activations]]

    def write_csv(self, fh: IO[str], agent: int, coordinates: list[int] | None = None) -> None:
        """Columns: k, coordinate (1-indexed), truth_x, est_x, truth_y, est_y,
        abs_err_x, abs_err_y.  Truth columns are empty when unscored.  The
        bytes are those of the csv module writing the floats' reprs."""
        ex = self.est_x[agent]
        kk, p = ex.shape
        coords = list(range(1, p + 1)) if coordinates is None else list(coordinates)
        if agent in self.truth_x:
            cols = [self.truth_x[agent], ex, self.truth_y[agent], self.est_y[agent],
                    self.err_x[agent], self.err_y[agent]]
            fmt = "{!r},{!r},{!r},{!r},{!r},{!r}"
        else:
            cols = [ex, self.est_y[agent]]
            fmt = ",{!r},,{!r},,"
        vals = np.stack([c[:, np.array(coords, dtype=np.int64) - 1] for c in cols], axis=-1)
        # states change only at the agent's activations: format each distinct
        # row of k once (bitwise distinct, so -0.0 and nan keep their text)
        bits = vals.reshape(kk, -1).view(np.uint64)
        fresh = np.concatenate(([True], np.any(bits[1:] != bits[:-1], axis=1)))
        texts = [[fmt.format(*v) for v in row] for row in vals[fresh].tolist()]
        fh.write(SCHEMA_LINE + "\n" + ",".join(REPORT_COLUMNS) + CSV_EOL)
        fh.writelines(f"{k},{c},{text}{CSV_EOL}"
                      for k, o in enumerate((np.cumsum(fresh) - 1).tolist())
                      for c, text in zip(coords, texts[o]))


def score_report(report: AttackReport, history: StateHistory) -> AttackReport:
    """Fill truth and absolute-error arrays from the simulator's history."""
    for agent in report.agents:
        xs, ys = history.trajectory(agent)
        kk = report.est_x[agent].shape[0]
        report.truth_x[agent] = xs[:kk]
        report.truth_y[agent] = ys[:kk]
        report.err_x[agent] = np.abs(report.est_x[agent] - xs[:kk])
        report.err_y[agent] = np.abs(report.est_y[agent] - ys[:kk])
    return report


def activations_of(transcript: Transcript, agent: int) -> list[int]:
    return np.flatnonzero(transcript.senders == agent).tolist()


def _epochs(senders: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per iteration, the active agent's epoch (its earlier activations) and
    its slot before the update; per agent, its activation count."""
    counts = np.bincount(senders - 1, minlength=n)
    order = np.argsort(senders, kind="stable")
    epoch = np.empty(len(senders), dtype=np.int64)
    epoch[order] = np.arange(len(senders)) - (np.cumsum(counts) - counts)[senders[order] - 1]
    return epoch, _first_slots(counts)[senders - 1] + epoch, counts


def _first_slots(counts: np.ndarray) -> np.ndarray:
    """Slot of each agent's epoch 0 when agent a holds counts[a-1] + 1 slots."""
    return np.cumsum(counts + 1) - (counts + 1)


def _token_steps(transcript: Transcript, last: int) -> tuple[np.ndarray, np.ndarray]:
    """Token z^k before iteration k and the difference z^{k+1} - z^k, k <= last."""
    z = transcript.z_values[: last + 1]
    z_prev = np.concatenate((np.zeros((1, z.shape[1])), z[:-1]))
    return z_prev, z - z_prev


def _expand_epochs(
    values_x: np.ndarray,
    values_y: np.ndarray,
    senders: np.ndarray,
    first_slot: dict[int, int],
    agents: list[int],
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Each agent's state at the start of iterations 0 .. K+1 from its
    per-slot values, K+1 = len(senders)."""
    out_x: dict[int, np.ndarray] = {}
    out_y: dict[int, np.ndarray] = {}
    for a in agents:
        slots = first_slot[a] + np.concatenate(([0], np.cumsum(senders == a)))
        out_x[a], out_y[a] = values_x[slots], values_y[slots]
    return out_x, out_y


def exact_recursion_attack(transcript: Transcript) -> AttackReport:
    """Unroll the token differences forward from the assumed all-zero start.

    Each iteration k gives two equations in the active agent's fresh pair:
        x_new = (N*Delta + z^k + x_prev) / 2
        y_new = y_prev + (rho/2) (z^k - N*Delta - x_prev)
    With x_prev, y_prev known (zero at the start), both are determined, and
    the gradient at the new point equals y_new.  Agents are independent, so
    each epoch updates every agent active in it at once.
    """
    n = transcript.n_agents
    rho = transcript.rho
    last = transcript.last_iteration
    senders = transcript.senders
    epoch, prev, counts = _epochs(senders, n)
    z_prev, delta = _token_steps(transcript, last)
    fwd_x = n * delta + z_prev
    fwd_y = z_prev - n * delta
    xs = np.zeros((len(senders) + n, transcript.dim))
    ys = np.zeros_like(xs)
    half_rho = 0.5 * rho
    by_epoch = np.argsort(epoch, kind="stable")
    for ks in np.split(by_epoch, np.cumsum(np.bincount(epoch))[:-1]):
        s = prev[ks]
        xs[s + 1] = 0.5 * (fwd_x[ks] + xs[s])
        ys[s + 1] = ys[s] + half_rho * (fwd_y[ks] - xs[s])
    first = _first_slots(counts)
    agents = list(range(1, n + 1))
    est_x, est_y = _expand_epochs(xs, ys, senders, {a: first[a - 1] for a in agents}, agents)
    return AttackReport(
        kind="exact_recursion",
        n_agents=n,
        rho=rho,
        last_iteration=last,
        est_x=est_x,
        est_y=est_y,
        init_assumption_violated=not transcript.deterministic_init,
        notes="" if transcript.deterministic_init else
        "transcript declares a randomized start; zero-start recursion will be off",
    )


def backward_error_bounds(
    n_epoch: int, total_epochs: int, eps: float, rho: float
) -> tuple[float, float]:
    """Worst-case estimate errors after unrolling n_epoch steps backward from
    a token pinned within eps of the final state: the x error doubles per
    step, and the y error telescopes to rho (2^(C+1) - 2^n) eps."""
    return (2.0**n_epoch) * eps, rho * (2.0 ** (total_epochs + 1) - 2.0**n_epoch) * eps


def terminal_backward_attack(transcript: Transcript, eps: float) -> AttackReport:
    """Estimate the final active agent's whole trajectory by treating the last
    token as its final state and unrolling the recursion backward, then
    rebuilding the duals forward from y^0 = rho x^0.

    Requires the run to have declared convergence within eps.
    """
    if not transcript.stopped_by_eps or not (transcript.stop_eps <= eps):
        raise AttackPreconditionError(
            f"transcript does not declare convergence within eps={eps}"
        )
    n = transcript.n_agents
    rho = transcript.rho
    last = transcript.last_iteration
    target = int(transcript.senders[last])
    acts = activations_of(transcript, target)
    z_prev, delta = _token_steps(transcript, last)
    z_a, nd_a = z_prev[acts], n * delta[acts]

    # backward pass: xs[e] estimates the state after the target's e-th activation
    xs = np.empty((len(acts) + 1, transcript.dim))
    xs[-1] = transcript.z_values[last]
    for e in range(len(acts) - 1, -1, -1):
        xs[e] = 2.0 * xs[e + 1] - nd_a[e] - z_a[e]
    # forward dual pass from y^0 = rho x^0 (accumulate adds in order)
    steps = 0.5 * rho * (z_a - nd_a - xs[:-1])
    ys = np.add.accumulate(np.concatenate((rho * xs[:1], steps)))
    est_x, est_y = _expand_epochs(xs, ys, transcript.senders, {target: 0}, [target])
    return AttackReport(
        kind="terminal_backward",
        n_agents=n,
        rho=rho,
        last_iteration=last,
        est_x=est_x,
        est_y=est_y,
        notes=f"target agent {target}, eps={eps}",
    )


@dataclass
class MeasurementSystem:
    """Per-coordinate sparse systems sharing one matrix structure.

    Unknowns are indexed per (agent, epoch, which) where an agent's epoch
    advances only at its own activations; states are constant in between, so
    nothing is lost and the column count stays small.  Column 2s is slot s's
    x and 2s + 1 its y.
    """

    systems: list[SparseSystem]
    columns: dict[tuple[int, int, str], int]
    row_tags: list[str]
    n_agents: int
    rho: float
    last_iteration: int
    activations: dict[int, list[int]]

    @property
    def shape(self) -> tuple[int, int]:
        return self.systems[0].n_rows, self.systems[0].n_cols


def _rows(base_cols, template, rhs: np.ndarray, tags: tuple[str, ...]):
    """A block of len(rhs) rows sharing one pattern: for the i-th base column
    c, each template entry (dr, dc, v) is the triplet (h*i + dr, c + dc, v),
    h = len(rhs) // len(base_cols) rows per base column (0: all in one row)."""
    base_cols = np.asarray(base_cols, dtype=np.int64)
    dr, dc, vals = np.array(template, dtype=float).T
    h = len(rhs) // len(base_cols)
    rows = (h * np.arange(len(base_cols))[:, None] + dr.astype(np.int64)).ravel()
    cols = (base_cols[:, None] + dc.astype(np.int64)).ravel()
    return rows, cols, np.tile(vals, len(base_cols)), rhs, list(tags) * (len(rhs) // len(tags))


def _recursion_rows(x_cols: np.ndarray, z_prev: np.ndarray, delta: np.ndarray,
                    n: int, rho: float, g: float):
    """The two token-difference relations of each activation under step
    scale g, the pre-update (x, y) in columns (c, c + 1), the fresh pair in
    (c + 2, c + 3):
        x' - x / (1+g)              = (N*Delta + g z) / (1+g)
        y' - y + rho g / (1+g) x    = rho g / (1+g) (z - N*Delta)"""
    rhs = np.empty((2 * len(x_cols), z_prev.shape[1]))
    rhs[0::2] = (n * delta + g * z_prev) / (1.0 + g)
    rhs[1::2] = (rho * g / (1.0 + g)) * (z_prev - n * delta)
    template = [(0, 2, 1.0), (0, 0, -1.0 / (1.0 + g)),
                (1, 3, 1.0), (1, 1, -1.0), (1, 0, rho * g / (1.0 + g))]
    return _rows(x_cols, template, rhs, ("recursion_x", "recursion_y"))


def _measurement_system(blocks, agents, counts, n_agents, rho, last, activations):
    """Stack row blocks into one matrix with a right-hand side per coordinate."""
    offsets = np.cumsum([0] + [len(b[3]) for b in blocks])
    columns = {key: c for c, key in enumerate(
        (a, e, w) for a, m in zip(agents, counts) for e in range(m + 1) for w in "xy")}
    rhs = np.ascontiguousarray(np.concatenate([b[3] for b in blocks]).T)
    base = SparseSystem(int(offsets[-1]), len(columns),
                        np.concatenate([b[0] + off for b, off in zip(blocks, offsets)]),
                        np.concatenate([b[1] for b in blocks]),
                        np.concatenate([b[2] for b in blocks]), rhs[0])
    return MeasurementSystem(
        systems=[base] + [base.with_rhs(b) for b in rhs[1:]],
        columns=columns,
        row_tags=[tag for b in blocks for tag in b[4]],
        n_agents=n_agents,
        rho=rho,
        last_iteration=last,
        activations=activations,
    )


def build_ls_system(
    transcript: Transcript,
    last_k: int | None = None,
    kkt_row: bool = True,
    pin_last_cycle: bool = True,
) -> MeasurementSystem:
    """Assemble the eavesdropper's linear system with unit step scale assumed.

    Rows, per coordinate:
      init             x_i^0 - y_i^0 / rho = 0 for every agent; when the
                        transcript declares the deterministic all-zero start,
                        x_i^0 = 0 and y_i^0 = 0 are added as well, since the
                        protocol makes them public
      recursion_x/_y   the two token-difference relations per iteration
      kkt_sum          sum of all duals at the last iteration = 0 (optional)
      convergence_pin  the last cycle's fresh x equals the observed token
                        (optional; needs at least one full cycle)
    """
    n = transcript.n_agents
    rho = transcript.rho
    p = transcript.dim
    last = transcript.last_iteration if last_k is None else last_k
    if not (0 <= last <= transcript.last_iteration):
        raise ValueError(f"last_k={last_k} outside transcript")
    if pin_last_cycle and last + 1 < n:
        raise ValueError("pin_last_cycle needs at least one full cycle of iterations")

    senders = transcript.senders[: last + 1]
    _, prev, counts = _epochs(senders, n)
    first = _first_slots(counts)
    init = [(0, 0, 1.0), (0, 1, -1.0 / rho)]  # x^0 - y^0 / rho = 0
    if transcript.deterministic_init:
        init += [(1, 0, 1.0), (2, 1, 1.0)]  # x^0 = 0, y^0 = 0
    init_rows = 3 if transcript.deterministic_init else 1
    blocks = [
        _rows(2 * first, init, np.zeros((n * init_rows, p)), ("init",)),
        _recursion_rows(2 * prev, *_token_steps(transcript, last), n, rho, 1.0),
    ]
    if kkt_row:
        at_last = counts.copy()
        at_last[senders[-1] - 1] -= 1
        blocks.append(_rows(2 * (first + at_last) + 1, [(0, 0, 1.0)], np.zeros((1, p)),
                            ("kkt_sum",)))
    if pin_last_cycle:
        ks = last - np.arange(n)
        final = senders[ks] - 1
        blocks.append(_rows(2 * (first + counts)[final], [(0, 0, 1.0)],
                            transcript.z_values[ks], ("convergence_pin",)))
    agents = list(range(1, n + 1))
    acts = {a: np.flatnonzero(senders == a).tolist() for a in agents}
    return _measurement_system(blocks, agents, counts, n, rho, last, acts)


def _lsq_report(kind: str, transcript: Transcript, ms: MeasurementSystem, tol: float,
                max_iter: int | None, agents: list[int], notes: str = "") -> AttackReport:
    """Solve each coordinate's system and read the agents' estimates off it."""
    results = [lsqr(sysm, tol=tol, max_iter=max_iter) for sysm in ms.systems]
    sol = np.stack([res.x for res in results], axis=1)
    first = {a: ms.columns[(a, 0, "x")] // 2 for a in agents}
    senders = transcript.senders[: ms.last_iteration + 1]
    est_x, est_y = _expand_epochs(sol[0::2], sol[1::2], senders, first, agents)
    return AttackReport(
        kind=kind,
        n_agents=ms.n_agents,
        rho=ms.rho,
        last_iteration=ms.last_iteration,
        est_x=est_x,
        est_y=est_y,
        dims=ms.shape,
        residual_norms=[res.residual_norm for res in results],
        lsqr_converged=all(res.converged for res in results),
        notes=notes,
    )


def lsq_attack(
    transcript: Transcript,
    kkt_row: bool = True,
    pin_last_cycle: bool = True,
    tol: float = 1e-10,
    max_iter: int | None = None,
    agents: list[int] | None = None,
) -> AttackReport:
    """Least-squares state reconstruction from the token transcript."""
    ms = build_ls_system(transcript, kkt_row=kkt_row, pin_last_cycle=pin_last_cycle)
    wanted = agents if agents is not None else list(range(1, ms.n_agents + 1))
    return _lsq_report("lsq", transcript, ms, tol, max_iter, wanted)


def build_colluding_system(
    transcript: Transcript,
    target: int,
    colluder_final_y_sum: np.ndarray | None = None,
    pin: bool = True,
    gamma_assumed: float = 1.0,
) -> MeasurementSystem:
    """System available to all agents except `target` pooling their knowledge.

    Only the rows involving the target's own activations carry new
    information; with the step scale fixed to `gamma_assumed` they are
    linear (the true per-activation scales stay private, so 1 is the neutral
    guess; other values support controlled mis-modeling experiments).  The
    colluders' summed final dual turns the stationarity condition into the
    extra row y_target = -(sum of colluders' duals), and the last token pins
    the target's final state.
    """
    n = transcript.n_agents
    rho = transcript.rho
    p = transcript.dim
    last = transcript.last_iteration
    acts = activations_of(transcript, target)
    if not acts:
        raise ValueError(f"agent {target} never activates in the transcript")
    if gamma_assumed <= 0:
        raise ValueError("gamma_assumed must be positive")
    z_prev, delta = _token_steps(transcript, last)
    final = 2 * len(acts)  # the target's last x column
    blocks = [
        _rows([0], [(0, 0, 1.0), (0, 1, -1.0 / rho)], np.zeros((1, p)), ("init",)),
        _recursion_rows(2 * np.arange(len(acts)), z_prev[acts], delta[acts], n, rho,
                        gamma_assumed),
    ]
    if colluder_final_y_sum is not None:
        blocks.append(_rows([final + 1], [(0, 0, 1.0)],
                            -np.asarray(colluder_final_y_sum, dtype=float)[None], ("kkt_sum",)))
    if pin:
        blocks.append(_rows([final], [(0, 0, 1.0)], transcript.z_values[last][None],
                            ("convergence_pin",)))
    return _measurement_system(blocks, [target], [len(acts)], n, rho, last, {target: acts})


def colluding_attack(
    transcript: Transcript,
    target: int,
    colluder_final_y_sum: np.ndarray | None = None,
    pin: bool = True,
    tol: float = 1e-10,
    max_iter: int | None = None,
    gamma_assumed: float = 1.0,
) -> AttackReport:
    """Reconstruct one agent's trajectory from the colluders' viewpoint,
    assuming a fixed step scale (1 unless overridden)."""
    ms = build_colluding_system(transcript, target, colluder_final_y_sum, pin,
                                gamma_assumed)
    return _lsq_report("colluding", transcript, ms, tol, max_iter, [target],
                       notes=f"target agent {target}")


@dataclass(frozen=True)
class SystemCounts:
    """Equation/unknown counts per coordinate.

    `stated` follows the published counting convention for the variant
    (one summed init relation for the randomized-start system, per-agent
    init rows plus unknown step scales for the perturbed one); `implemented`
    counts the rows and columns this module actually assembles, with the
    step scales substituted by 1.
    """

    stated: tuple[int, int]
    implemented: tuple[int, int]


def count_equations_unknowns(
    kind: str,
    last_k: int,
    n_agents: int,
    kkt_row: bool = False,
    pin_last_cycle: bool = False,
) -> SystemCounts:
    """Counts for kind in {"randinit", "piadmm1", "colluding"} at K=last_k."""
    if last_k < 0 or n_agents < 3:
        raise ValueError("need last_k >= 0 and n_agents >= 3")
    k = last_k
    n = n_agents
    extra = (1 if kkt_row else 0) + (n if pin_last_cycle else 0)
    impl_rows = n + 2 * (k + 1) + extra
    impl_cols = 2 * (k + 1 + n)
    if kind == "randinit":
        return SystemCounts(stated=(2 * k + 3, 2 * k + 2 * n + 2),
                            implemented=(impl_rows, impl_cols))
    if kind == "piadmm1":
        return SystemCounts(stated=(2 * k + n + 2, 3 * k + 2 * n + 3),
                            implemented=(impl_rows, impl_cols))
    if kind == "colluding":
        c = k // n
        extra_c = (1 if kkt_row else 0) + (1 if pin_last_cycle else 0)
        return SystemCounts(
            stated=(2 * c + 3, 3 * c + 5),
            implemented=(1 + 2 * (c + 1) + extra_c, 2 * (c + 2)),
        )
    raise ValueError(f"unknown system kind {kind!r}")


def system_truth_residual(ms: MeasurementSystem, history: StateHistory) -> float:
    """Max residual of the ground-truth states plugged into the system rows
    (diagnostic oracle; meaningful when the run matched the gamma=1, no-noise
    assumptions except for the soft convergence pins)."""
    worst = 0.0
    p = len(ms.systems)
    truth_cols = np.zeros((ms.systems[0].n_cols, p))
    for (a, e, which), c in ms.columns.items():
        if e == 0:
            truth_cols[c] = history.x0[a - 1] if which == "x" else history.y0[a - 1]
        else:
            k_act = ms.activations[a][e - 1]
            truth_cols[c] = (
                history.x_new[k_act] if which == "x" else history.y_new[k_act]
            )
    for ci in range(p):
        sysm = ms.systems[ci]
        resid = sysm.matrix() @ truth_cols[:, ci] - sysm.rhs
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst
