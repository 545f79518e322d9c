"""Arbitrary text given to the two input parsers either parses into finite,
in-range values or fails with the parser's own error type, never another."""

import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ringadmm.config import ConfigError, ExperimentConfig
from ringadmm.records import META_KEYS, SCHEMA_LINE, Transcript, TranscriptError

# tokens near every edge the parsers check: signs, zero, huge and tiny
# magnitudes, non-finite floats, non-integers where integers belong, junk
NUMBERS = st.sampled_from([
    "0", "1", "2", "3", "-1", "5", "1.5", "-0.0", "1e-300", "1e300", "1e999", "-1e999",
    "nan", "inf", "-inf", "10**3", "9" * 40, "9" * 400, "0x10", "1_0", "", " ", "x", "true",
])
TOKENS = NUMBERS | st.integers(-10, 10).map(str) | st.floats().map(repr) | st.text(max_size=6)


def _joined(parts, sep: str) -> st.SearchStrategy[str]:
    return st.lists(parts, max_size=8).map(sep.join)


def _mostly(good, bad=TOKENS) -> st.SearchStrategy[str]:
    """`good` nine times in ten, else `bad`: many inputs get past the early checks."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


GOOD_META = {
    "n_agents": st.sampled_from(["3", "4", "1", "0", "9" * 40]),
    "rho": st.sampled_from(["10.0", "0.5", "1e-300", "1e300"]),
    "deterministic_init": st.sampled_from(["0", "1"]),
    "stopped_by_eps": st.sampled_from(["0", "1"]),
    "stop_eps": st.sampled_from(["nan", "1e-10", "0.0", "-1.0", "inf"]),
}
AGENT = _mostly(st.sampled_from(["1", "2", "3", "4"]))
FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def transcript_texts(draw) -> str:
    """A transcript file with any part well formed or mangled."""
    schema = draw(_mostly(st.just(SCHEMA_LINE), st.text(max_size=10)))
    keys = [k for k in META_KEYS if draw(_mostly(st.just(True), st.just(False)))]
    keys += draw(st.lists(st.sampled_from(META_KEYS + ("n", "")), max_size=1))
    meta = "#meta " + " ".join(f"{k}={draw(_mostly(GOOD_META.get(k, TOKENS)))}" for k in keys)
    p = draw(_mostly(st.integers(1, 3), st.just(0)))
    header = ",".join(["k", "from_agent", "to_agent"] + [f"z{c + 1}" for c in range(p)])
    rows = []
    for k in range(draw(st.integers(0, 5))):
        fields = [draw(_mostly(st.just(str(k)))), draw(AGENT), draw(AGENT)]
        width = p + draw(_mostly(st.just(0), st.integers(-1, 1)))
        fields += [draw(_mostly(FINITE)) for _ in range(width)]
        rows.append(",".join(fields))
    lines = [schema, meta, draw(_mostly(st.just(header), _joined(TOKENS, ","))), *rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(transcript_texts() | st.text())
def test_transcript_reader_gives_checked_values_or_transcript_error(text):
    try:
        tr = Transcript.read_csv(io.StringIO(text))
    except TranscriptError:
        return
    n = tr.n_agents
    assert n >= 1 and math.isfinite(tr.rho) and tr.rho > 0
    assert math.isnan(tr.stop_eps) or math.isfinite(tr.stop_eps)
    assert len(tr.senders) >= 1 and tr.z_values.shape == (len(tr.senders), tr.dim)
    assert tr.dim >= 1 and np.isfinite(tr.z_values).all()
    for ids in (tr.senders, tr.receivers):
        assert ids.dtype == np.int64 and ((ids >= 1) & (ids <= n)).all()


DEFAULTS = ExperimentConfig().to_mapping()
SPECS = st.sampled_from(["zeros", "constant:", "uniform:", "descent_floor:"]).flatmap(
    lambda kind: _joined(NUMBERS, ",").map(lambda rest: kind + rest))
GOOD_VALUES = {
    **{key: st.just(value) for key, value in DEFAULTS.items()},
    "solver.variant": st.sampled_from(["iadmm", "iadmm_randinit", "piadmm1", "piadmm2", "wadmm"]),
    "solver.gamma": st.sampled_from(["constant:1.0", "uniform:0.9,1.1", "descent_floor:1.01"]),
    "solver.init": st.sampled_from(["zeros", "uniform:-1,1"]),
    "network.n_agents": st.sampled_from(["3", "8", "9" * 40, "9" * 400]),
}


@st.composite
def config_texts(draw) -> str:
    """A config file whose keys each take a sensible value or a mangled one."""
    keys = draw(st.lists(st.sampled_from(list(DEFAULTS)), max_size=10, unique=True))
    lines = [f"{key} = {draw(_mostly(GOOD_VALUES.get(key, TOKENS), TOKENS | SPECS))}"
             for key in keys]
    lines += draw(_mostly(st.just([]), st.lists(st.text(max_size=12), max_size=2)))
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(config_texts() | st.text())
def test_config_parser_gives_valid_values_or_config_error(text):
    try:
        cfg = ExperimentConfig.from_text(text)
    except ConfigError:
        return
    cfg.validate()
    g, init, a = cfg.gamma, cfg.init, cfg.attack
    floats = [cfg.eta, cfg.rho, cfg.sigma, cfg.stop_eps, g.value, g.lo, g.hi, g.margin,
              init.lo, init.hi, a.eps, a.lsqr_tol]
    assert all(math.isfinite(v) for v in floats)
    assert cfg.rho > 0 and cfg.sigma >= 0 and cfg.max_iters >= 1 and cfg.n_agents >= 3
    assert ExperimentConfig.from_text(cfg.to_text()).to_mapping() == cfg.to_mapping()
