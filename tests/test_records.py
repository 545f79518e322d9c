import csv
import io
import math

import numpy as np

from ringadmm.records import SCHEMA_LINE, TRACE_COLUMNS, RunTrace, Transcript

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
    back = Transcript.read_csv(io.StringIO(fh.getvalue()))
    assert np.array_equal(back.z_values, z, equal_nan=True)
    assert np.array_equal(np.signbit(back.z_values), np.signbit(z))


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
