import csv
import io
import math

import numpy as np
import pytest

from ringadmm.records import (SCHEMA_LINE, TRACE_COLUMNS, RunTrace, StateHistory, Transcript,
                              TranscriptError)

# awkward floats: repr must round-trip them exactly as the csv module wrote them
ODD = [math.nan, -0.0, 0.0, 1e300, -1e-300, 1e-300, -1e300, math.inf, -math.inf,
       0.1, -2.5e-17, 123456789.0]


def csv_writer_transcript(tr: Transcript) -> str:
    """The transcript as the csv module writes it: the reference format."""
    fh = io.StringIO()
    fh.write(SCHEMA_LINE + "\n")
    fh.write(
        f"#meta n_agents={tr.n_agents} rho={tr.rho!r} "
        f"deterministic_init={int(tr.deterministic_init)} "
        f"stopped_by_eps={int(tr.stopped_by_eps)} stop_eps={tr.stop_eps!r}\n"
    )
    w = csv.writer(fh)
    w.writerow(["k", "from_agent", "to_agent"] + [f"z{c + 1}" for c in range(tr.dim)])
    for k in range(len(tr.senders)):
        w.writerow([k, int(tr.senders[k]), int(tr.receivers[k])]
                   + [repr(float(v)) for v in tr.z_values[k]])
    return fh.getvalue()


def csv_writer_trace(trace: RunTrace, every: int) -> str:
    fh = io.StringIO()
    fh.write(SCHEMA_LINE + "\n")
    w = csv.writer(fh)
    w.writerow(TRACE_COLUMNS)
    records = trace.records
    for idx, r in enumerate(records):
        if idx % every and idx != len(records) - 1:
            continue
        w.writerow([r.k, r.agent, repr(r.accuracy), repr(r.aug_lagrangian),
                    repr(r.r_primal), repr(r.r_dualstep), repr(r.r_gradsum),
                    r.comm_units, repr(r.gamma), repr(r.omega_norm)])
    return fh.getvalue()


def test_transcript_csv_matches_csv_module_byte_for_byte():
    z = np.array(ODD).reshape(-1, 3)
    tr = Transcript(n_agents=4, rho=10.0, senders=np.arange(1, 5), receivers=np.array([2, 3, 4, 1]),
                    z_values=z, deterministic_init=False, stopped_by_eps=True, stop_eps=1e-10)
    fh = io.StringIO(newline="")
    tr.write_csv(fh)
    assert fh.getvalue() == csv_writer_transcript(tr)
    # the reader refuses non-finite tokens; the finite ones round-trip exactly
    with pytest.raises(TranscriptError, match="non-finite z"):
        Transcript.read_csv(io.StringIO(fh.getvalue()))
    tr.z_values = np.where(np.isfinite(z), z, -0.0)
    fh = io.StringIO(newline="")
    tr.write_csv(fh)
    back = Transcript.read_csv(io.StringIO(fh.getvalue()))
    assert np.array_equal(back.z_values, tr.z_values)
    assert np.array_equal(np.signbit(back.z_values), np.signbit(tr.z_values))


def test_transcript_csv_any_width_and_length_matches_csv_module():
    rng = np.random.default_rng(3)
    for z in [np.array(ODD).reshape(-1, p) for p in (1, 2, 4, 6)] + [
            rng.standard_normal((rows, 2)) for rows in (2047, 2048, 2049, 5000)]:
        ids = np.arange(1, len(z) + 1)
        tr = Transcript(n_agents=len(z), rho=0.1, senders=ids, receivers=ids[::-1], z_values=z)
        fh = io.StringIO(newline="")
        tr.write_csv(fh)
        assert fh.getvalue() == csv_writer_transcript(tr)


def test_trace_csv_matches_csv_module_byte_for_byte():
    rng = np.random.default_rng(0)
    values = rng.choice(ODD, size=(11, 7))
    trace = RunTrace(agents=rng.integers(1, 5, size=11), values=values)
    for every in (1, 3, 4, 11, 20):
        fh = io.StringIO(newline="")
        trace.write_csv(fh, every=every)
        assert fh.getvalue() == csv_writer_trace(trace, every)
    fh = io.StringIO(newline="")
    RunTrace().write_csv(fh)
    assert fh.getvalue() == csv_writer_trace(RunTrace(), 1)


@pytest.mark.parametrize("every", [0, -1, -(2**70)])
def test_trace_checkpoints_refuse_every_below_one(every):
    trace = RunTrace(agents=np.arange(1, 6), values=np.zeros((5, 7)))
    with pytest.raises(ValueError, match=f"every must be at least 1, got {every}$"):
        trace.checkpoints(every)
    with pytest.raises(ValueError, match=f"every must be at least 1, got {every}$"):
        trace.write_csv(io.StringIO(), every)


def test_trajectory_follows_its_own_agent_and_refuses_one_outside_1_to_n():
    """Agents [1, 2, 3, 1] of N = 3: agent a's row k is its start until it
    first acts, then its state after its latest update."""
    x0, y0 = np.arange(6.0).reshape(3, 2), -np.arange(6.0).reshape(3, 2)
    x_new, y_new = 10.0 + np.arange(8.0).reshape(4, 2), 20.0 + np.arange(8.0).reshape(4, 2)
    history = StateHistory(x0=x0, y0=y0, agents=np.array([1, 2, 3, 1]), x_new=x_new, y_new=y_new)
    for agent, rows in [(1, [-1, 0, 0, 0, 3]), (2, [-1, -1, 1, 1, 1]),
                        (3, [-1, -1, -1, 2, 2])]:
        x, y = history.trajectory(agent)
        want = [x0[agent - 1] if r < 0 else x_new[r] for r in rows]
        assert np.array_equal(x, want)
        assert np.array_equal(y, [y0[agent - 1] if r < 0 else y_new[r] for r in rows])
    for agent in (0, 4, -1):
        with pytest.raises(ValueError, match=rf"agent must be in 1\.\.3, got {agent}$"):
            history.trajectory(agent)


VALID = (
    "#schema=1\n"
    "#meta n_agents=3 rho=10.0 deterministic_init=1 stopped_by_eps=0 stop_eps=nan\n"
    "k,from_agent,to_agent,z1,z2\n"
    "0,1,2,0.5,-0.25\n"
    "1,2,3,0.75,1e-300\n"
    "2,3,1,-0.0,2.0\n"
)

# (fault, edit of VALID, message); each edit is one malformation
MALFORMED = {
    "header_without_z": ("k,from_agent,to_agent,z1,z2", "k,from_agent,to_agent", "header"),
    "header_wider_than_rows": ("to_agent,z1,z2", "to_agent,z1,z2,z3", "data rows have 5"),
    "header_narrower_than_rows": ("to_agent,z1,z2", "to_agent,z1", "data rows have 5"),
    "short_row": ("1,2,3,0.75,1e-300", "1,2,3,0.75", "columns changed from 5 to 4 at row 2"),
    "k_not_sequential": ("2,3,1,", "3,3,1,", "k is not sequential from 0 in data row 2"),
    "k_not_integer": ("1,2,3,", "1.5,2,3,", "k is not sequential from 0 in data row 1"),
    "sender_zero": ("1,2,3,", "1,0,3,", r"agent id not in 1\.\.3 in data row 1"),
    "receiver_too_large": ("2,3,1,", "2,3,4,", r"agent id not in 1\.\.3 in data row 2"),
    "sender_not_integer": ("2,3,1,", "2,2.5,1,", r"agent id not in 1\.\.3 in data row 2"),
    "nan_z": ("0.75,1e-300", "nan,1e-300", "non-finite z in data row 1"),
    "inf_z": ("-0.0,2.0", "-0.0,-inf", "non-finite z in data row 2"),
    "missing_meta_key": (" stop_eps=nan", "", "lacks stop_eps"),
    "missing_meta_keys": ("n_agents=3 rho=10.0 ", "", "lacks n_agents, rho"),
    "unparsable_field": ("0.5,-0.25", "0.5,x", "unparsable"),
    "nan_rho": ("rho=10.0", "rho=nan", "rho=nan is not a finite positive number"),
    "zero_rho": ("rho=10.0", "rho=0.0", "rho=0.0 is not a finite positive number"),
    "negative_rho": ("rho=10.0", "rho=-10.0", "rho=-10.0 is not a finite positive number"),
    "inf_rho": ("rho=10.0", "rho=inf", "rho=inf is not a finite positive number"),
    "inf_stop_eps": ("stop_eps=nan", "stop_eps=-inf", "stop_eps=-inf is infinite"),
    "no_rows": ("0,1,2,0.5,-0.25\n1,2,3,0.75,1e-300\n2,3,1,-0.0,2.0\n", "", "no iterations"),
}


def test_valid_transcript_reads():
    tr = Transcript.read_csv(io.StringIO(VALID))
    assert tr.n_agents == 3 and tr.rho == 10.0 and tr.deterministic_init
    assert tr.senders.tolist() == [1, 2, 3] and tr.receivers.tolist() == [2, 3, 1]
    assert np.array_equal(tr.z_values, [[0.5, -0.25], [0.75, 1e-300], [-0.0, 2.0]])
    assert math.isnan(tr.stop_eps) and not tr.stopped_by_eps


@pytest.mark.parametrize("fault", sorted(MALFORMED))
def test_malformed_transcript_rejected(fault):
    old, new, message = MALFORMED[fault]
    assert old in VALID
    with pytest.raises(TranscriptError, match=message):
        Transcript.read_csv(io.StringIO(VALID.replace(old, new, 1)))
