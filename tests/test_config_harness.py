import csv
import io
import math
import os
import re

import numpy as np
import pytest

from conftest import make_cfg
from ringadmm.cli import main
from ringadmm.config import ConfigError, ExperimentConfig, parse_kv_text
from ringadmm.harness import (build_problem, parse_sweep_spec, run_attack, run_experiment,
                              run_sweep)
from ringadmm.records import Transcript
from ringadmm.solver import GammaSpec, InitSpec, Variant, run


BASE_CONFIG = """\
# small deterministic experiment
problem = ridge
p = 2
b = 30
network.n_agents = 6
network.eta = 0.5
solver.variant = iadmm
solver.x_update = exact_prox
solver.rho = 10.0
solver.max_iters = 300
solver.stop_eps = 0.0
seeds.graph = 1
seeds.data = 2
seeds.solver = 3
"""

# a random start so far out that the first iteration leaves no finite state
DIVERGES_AT_0 = BASE_CONFIG.replace(
    "solver.variant = iadmm", "solver.variant = iadmm_randinit").replace(
    "solver.rho = 10.0", "solver.rho = 1e10") + "solver.init = uniform:-1e300,1e300\n"


class TestConfigFormat:
    def test_parse_basic(self):
        kv = parse_kv_text("a = 1\n# comment\nb.c = two words\n")
        assert kv == {"a": "1", "b.c": "two words"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_kv_text("just some words\n")

    def test_roundtrip_identity(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG)
        text = cfg.to_text()
        again = ExperimentConfig.from_text(text)
        assert again.to_text() == text
        assert again == cfg

    def test_roundtrip_with_all_specs(self):
        cfg = make_cfg(
            variant=Variant.PIADMM1,
            gamma=GammaSpec.uniform(0.9, 1.1),
            init=InitSpec.uniform(0, 100),
            sigma=1e-3,
        )
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_to_text_writes_every_key_in_file_order(self):
        cfg = ExperimentConfig.from_text(
            "solver.variant = piadmm1\nsolver.gamma = uniform:0.9, 1.1\n"
            "solver.init = uniform:-1,1\nattack.kkt_row = no\nattack.agents = 3, 1\n")
        assert cfg.to_text() == (
            "problem = ridge\np = 2\nb = 30\nnetwork.n_agents = 20\nnetwork.eta = 0.3\n"
            "solver.variant = piadmm1\nsolver.x_update = exact_prox\nsolver.rho = 10.0\n"
            "solver.gamma = uniform:0.9,1.1\nsolver.sigma = 0.0\nsolver.init = uniform:-1.0,1.0\n"
            "solver.max_iters = 10000\nsolver.stop_eps = 1e-10\nseeds.graph = 1\n"
            "seeds.data = 2\nseeds.solver = 3\nseeds.attack = 4\n"
            "trace.checkpoint_every = 0\nattack.kind = lsq\nattack.kkt_row = false\n"
            "attack.pin_last_cycle = true\nattack.agents = 3,1\nattack.coordinates = 1\n"
            "attack.eps = 0.0001\nattack.target = 1\nattack.lsqr_tol = 1e-10\n"
            "attack.lsqr_max_iter = 0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_text(BASE_CONFIG + "solver.typo = 1\n")

    def test_field_level_messages(self):
        bad = BASE_CONFIG.replace("network.eta = 0.5", "network.eta = 7")
        with pytest.raises(ConfigError, match="network.eta"):
            ExperimentConfig.from_text(bad)

    @pytest.mark.parametrize("line, message", [
        ("attack.lsqr_tol = 0", "attack.lsqr_tol: must be positive"),
        ("attack.lsqr_max_iter = -5",
         "attack.lsqr_max_iter: must be >= 0 (0 means 10 * (rows + cols))"),
        ("trace.checkpoint_every = -3",
         "trace.checkpoint_every: must be >= 0 (0 means one row per cycle)"),
    ])
    def test_attack_and_trace_limits_named(self, line, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(BASE_CONFIG + line + "\n")
        assert str(info.value) == message

    @pytest.mark.parametrize("key, old", [("seeds.graph", "1"), ("seeds.data", "2"),
                                          ("seeds.solver", "3")])
    def test_negative_seed_named(self, key, old):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(BASE_CONFIG.replace(f"{key} = {old}", f"{key} = -3"))
        assert str(info.value) == f"{key}: must be >= 0, got -3"

    @pytest.mark.parametrize("key, message", [
        ("attack.agents", "attack.agents: expected at least one agent"),
        ("attack.coordinates", "attack.coordinates: expected at least one coordinate"),
    ])
    def test_empty_attack_list_named(self, key, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(BASE_CONFIG + f"{key} =\n")
        assert str(info.value) == message

    def test_logistic_requires_first_order(self):
        bad = BASE_CONFIG.replace("problem = ridge", "problem = logistic")
        with pytest.raises(ConfigError, match="first_order"):
            ExperimentConfig.from_text(bad)

    def test_gamma_spec_grammar(self):
        cfg = ExperimentConfig.from_text(
            BASE_CONFIG + "solver.gamma = uniform:0.9,1.1\n"
        )
        assert cfg.gamma == GammaSpec.uniform(0.9, 1.1)
        with pytest.raises(ConfigError, match="gamma"):
            ExperimentConfig.from_text(BASE_CONFIG + "solver.gamma = uniform:-1,2\n")


class TestHarness:
    def test_run_experiment_writes_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_text(BASE_CONFIG)
        result, summary = run_experiment(cfg, out_dir=str(tmp_path))
        assert (tmp_path / "run_trace.csv").exists()
        assert (tmp_path / "transcript.csv").exists()
        assert "accuracy=" in summary.line()
        first = (tmp_path / "run_trace.csv").read_text().splitlines()[0]
        assert first == "#schema=1"

    def test_bit_reproducible_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_text(BASE_CONFIG)
        run_experiment(cfg, out_dir=str(tmp_path / "a"))
        run_experiment(cfg, out_dir=str(tmp_path / "b"))
        for name in ("run_trace.csv", "transcript.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_transcript_csv_roundtrip(self, tmp_path):
        cfg = ExperimentConfig.from_text(BASE_CONFIG)
        result, _ = run_experiment(cfg, out_dir=str(tmp_path))
        with open(tmp_path / "transcript.csv") as fh:
            transcript = Transcript.read_csv(fh)
        assert transcript.n_agents == 6
        assert transcript.rho == 10.0
        assert np.array_equal(transcript.senders, result.transcript.senders)
        assert np.array_equal(transcript.z_values, result.transcript.z_values)

    def test_attack_scored_when_transcript_matches(self, tmp_path):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "attack.kind = exact\n")
        result, _ = run_experiment(cfg)
        rep = run_attack(cfg, result.transcript, out_dir=str(tmp_path))
        assert rep.err_x[1].max() <= 1e-9
        assert (tmp_path / "attack_agent1.csv").exists()

    def test_attack_unscored_on_mismatch(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "attack.kind = exact\n")
        result, _ = run_experiment(cfg)
        other = ExperimentConfig.from_text(BASE_CONFIG.replace(
            "seeds.data = 2", "seeds.data = 99"
        ) + "attack.kind = exact\n")
        rep = run_attack(other, result.transcript)
        assert 1 not in rep.err_x

    def test_attack_scores_only_the_exported_agents(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "attack.kind = exact\n"
                                         "attack.agents = 2,5\n")
        result, _ = run_experiment(cfg)
        rep = run_attack(cfg, result.transcript)
        assert rep.agents == [2, 5]
        assert sorted(rep.err_x) == sorted(rep.truth_y) == [2, 5]
        assert rep.unscored == ""

    def test_attack_writes_each_coordinate_once_in_order(self, tmp_path):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "attack.kind = exact\n"
                                         "attack.coordinates = 2,1,2\n")
        result, _ = run_experiment(cfg)
        run_attack(cfg, result.transcript, out_dir=str(tmp_path))
        with open(tmp_path / "attack_agent1.csv", newline="") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert [(r["k"], r["coordinate"]) for r in rows] == [
            (str(k), c) for k in range(result.transcript.last_iteration + 2) for c in "12"]

    def test_attack_unscored_reason_from_the_config(self, monkeypatch):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "attack.kind = exact\n")
        result, _ = run_experiment(cfg)
        # a config that validates but cannot run: its descent floor needs rho > L
        bad = ExperimentConfig.from_text(
            BASE_CONFIG.replace("solver.rho = 10.0", "solver.rho = 0.001")
            .replace("solver.variant = iadmm", "solver.variant = piadmm1")
            + "attack.kind = exact\nsolver.gamma = descent_floor:1.01\n")
        monkeypatch.setattr(result.transcript, "rho", 0.001)
        rep = run_attack(bad, result.transcript)
        assert rep.unscored.startswith("ValueError: need rho > L") and not rep.err_x

    def test_attack_lets_other_errors_through(self, monkeypatch):
        import ringadmm.harness as harness

        cfg = ExperimentConfig.from_text(BASE_CONFIG + "attack.kind = exact\n")
        result, _ = run_experiment(cfg)

        def broken(cfg):
            raise RuntimeError("not a config error")

        monkeypatch.setattr(harness, "build_problem", broken)
        with pytest.raises(RuntimeError, match="not a config error"):
            run_attack(cfg, result.transcript)

    def test_attack_rejects_wrong_network(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG)
        result, _ = run_experiment(cfg)
        bad = ExperimentConfig.from_text(
            BASE_CONFIG.replace("network.n_agents = 6", "network.n_agents = 8")
        )
        with pytest.raises(ConfigError, match="agents"):
            run_attack(bad, result.transcript)

    @pytest.mark.parametrize("every, step", [(0, 6), (7, 7), (300, 300), (2**63, 2**63),
                                             (10**20, 10**20)])
    def test_trace_rows_follow_checkpoint_every(self, tmp_path, every, step):
        text = BASE_CONFIG + f"trace.checkpoint_every = {every}\n"
        run_experiment(ExperimentConfig.from_text(text), out_dir=str(tmp_path))
        run_sweep(text, "solver.rho = 10.0\n", str(tmp_path / "sweep.csv"))
        for name in ("run_trace.csv", "sweep.csv"):
            with open(tmp_path / name, newline="") as fh:
                fh.readline()
                ks = [int(r["k"]) for r in csv.DictReader(fh)]
            assert ks == list(range(0, 300, step)) + [299], name

    def test_attack_rejects_wrong_dimension(self):
        result, _ = run_experiment(ExperimentConfig.from_text(
            BASE_CONFIG.replace("\np = 2\n", "\np = 1\n")))
        bad = ExperimentConfig.from_text(BASE_CONFIG + "attack.coordinates = 1,2\n")
        with pytest.raises(ConfigError) as info:
            run_attack(bad, result.transcript)
        assert str(info.value) == "transcript has dimension 1, config says p = 2"

    def test_non_finite_start_blamed_in_run_and_sweep(self, tmp_path):
        # rho 1e10 times a start near 1e300 is infinite before any step
        reason = ("non-finite state at iteration 0 (agent 1); the random start is not "
                  "finite (solver.init times solver.rho overflows)")
        cfg = ExperimentConfig.from_text(DIVERGES_AT_0)
        graph, problem = build_problem(cfg)
        assert run(problem, graph, cfg).trace.stop_reason == "diverged: " + reason
        path = tmp_path / "sweep.csv"
        assert run_sweep(DIVERGES_AT_0, "solver.variant = iadmm_randinit\n", str(path)) == 1
        with open(path, newline="") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["error:DivergenceError:" + reason]

    def test_sweep_long_format_and_failures(self, tmp_path):
        sweep_spec = "network.eta = 0.5, 2.0\nseed = 1, 2\n"
        out = tmp_path / "sweep.csv"
        failures = run_sweep(BASE_CONFIG, sweep_spec, str(out))
        text = out.read_text().splitlines()
        assert text[0] == "#schema=1"
        assert failures == 2  # eta = 2.0 is invalid for both seeds
        ok_rows = [ln for ln in text[2:] if ln.endswith(",ok")]
        err_rows = [ln for ln in text[2:] if "error:ConfigError" in ln]
        assert ok_rows and len(err_rows) == 2

    def test_sweep_spec_parsing(self):
        grid, seeds = parse_sweep_spec("solver.rho = 1, 10\nseed = 3, 4, 5\n")
        assert grid == {"solver.rho": ["1", "10"]}
        assert seeds == [3, 4, 5]
        _, no_seeds = parse_sweep_spec("solver.rho = 1\n")
        assert no_seeds is None

    @pytest.mark.parametrize("variant, key, values", [
        ("piadmm1", "solver.gamma", ["uniform:0.9,1.1", "constant:1.0"]),
        ("iadmm_randinit", "solver.init", ["zeros", "uniform:-1,1"]),
    ])
    def test_sweep_lists_specs_that_hold_commas(self, tmp_path, variant, key, values):
        spec = f"solver.variant = {variant}\n{key} = {', '.join(values)}\n"
        assert parse_sweep_spec(spec)[0][key] == values
        out = tmp_path / "sweep.csv"
        assert run_sweep(BASE_CONFIG, spec, str(out)) == 0
        with open(out, newline="") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        points = {r["run_index"]: r["overrides"] for r in rows}
        assert len(points) == 2 and {r["status"] for r in rows} == {"ok"}
        assert [o.split(";")[0] for o in points.values()] == [f"{key}={v}" for v in values]

    def test_sweep_spec_value_grammar(self):
        grid, seeds = parse_sweep_spec(
            "solver.gamma = descent_floor:1.01,uniform:1, 2,constant:1\n"
            "solver.init = uniform:-1, 1 ,zeros\nattack.agents = 1,2\nseed = 7\n")
        assert grid == {"solver.gamma": ["descent_floor:1.01", "uniform:1,2", "constant:1"],
                        "solver.init": ["uniform:-1,1", "zeros"], "attack.agents": ["1", "2"]}
        assert seeds == [7]
        with pytest.raises(ConfigError, match=r"^seed: expected integer, got '1.5'$"):
            parse_sweep_spec("seed = 1, 1.5\n")
        with pytest.raises(ConfigError, match=r"^solver.rho: expected at least one sweep value$"):
            parse_sweep_spec("solver.rho = ,\n")

    def test_sweep_without_seed_key_keeps_base_seeds(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_sweep(BASE_CONFIG, "solver.rho = 10.0\n", str(out))
        sweep_rows = [ln for ln in out.read_text().splitlines()[2:] if ln]
        cfg = ExperimentConfig.from_text(BASE_CONFIG)
        result, _ = run_experiment(cfg)
        last = sweep_rows[-1].split(",")
        assert last[2] == ""  # no sweep seed applied
        assert float(last[5]) == result.trace.final.accuracy

    def test_sweep_reproducible(self, tmp_path):
        spec = "solver.rho = 5, 10\n"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(BASE_CONFIG, spec, str(a))
        run_sweep(BASE_CONFIG, spec, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_logistic_first_order_run_converges(self):
        text = BASE_CONFIG.replace("problem = ridge", "problem = logistic")
        text = text.replace("solver.x_update = exact_prox",
                            "solver.x_update = first_order")
        text = text.replace("solver.rho = 10.0", "solver.rho = 1.0")
        text = text.replace("network.n_agents = 6", "network.n_agents = 10")
        text = text.replace("solver.max_iters = 300", "solver.max_iters = 2000")
        cfg = ExperimentConfig.from_text(text)
        result, summary = run_experiment(cfg)
        assert not result.trace.diverged
        assert result.trace.final.accuracy < 0.05  # well below the start at 1.0


class TestCli:
    def write(self, tmp_path, text, name="exp.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_run_ok(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CONFIG)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--gnuplot"])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out
        assert (tmp_path / "out" / "run_trace.csv").exists()
        assert (tmp_path / "out" / "graph.txt").read_text().splitlines()[0] == "6"
        assert "run_trace.csv" in (tmp_path / "out" / "plot_trace.gp").read_text()

    def test_run_validation_error_exit_1(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CONFIG + "network.eta = -1\n")
        assert main(["run", "--config", cfg]) == 1

    def test_run_missing_config_exit_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert capsys.readouterr().err.startswith("missing file: ")

    def unreadable(self, tmp_path, kind) -> str:
        """A directory, or a file that is not UTF-8 text."""
        if kind == "directory":
            (tmp_path / "dir").mkdir()
            return str(tmp_path / "dir")
        (tmp_path / "latin1.txt").write_bytes("solver.rho = 10.0 # \u00e9\n".encode("latin-1"))
        return str(tmp_path / "latin1.txt")

    def assert_unreadable(self, capsys, code, path):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"unreadable file: {path}: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_run_unreadable_config_exit_1(self, tmp_path, capsys, kind):
        path = self.unreadable(tmp_path, kind)
        self.assert_unreadable(capsys, main(["run", "--config", path]), path)

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    @pytest.mark.parametrize("which", ["--config", "--sweep"])
    def test_sweep_unreadable_input_exit_1(self, tmp_path, capsys, kind, which):
        path = self.unreadable(tmp_path, kind)
        args = {"--config": self.write(tmp_path, BASE_CONFIG),
                "--sweep": self.write(tmp_path, "seed = 1\n", name="sweep.cfg"), which: path}
        code = main(["sweep", *(a for kv in args.items() for a in kv), "--out", str(tmp_path)])
        self.assert_unreadable(capsys, code, path)
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_attack_unreadable_transcript_exit_1(self, tmp_path, capsys, kind):
        path = self.unreadable(tmp_path, kind)
        cfg = self.write(tmp_path, BASE_CONFIG + "attack.kind = exact\n")
        code = main(["attack", "--config", cfg, "--transcript", path, "--out", str(tmp_path)])
        self.assert_unreadable(capsys, code, path)

    def test_run_unwritable_out_exit_2(self, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        assert main(["run", "--config", self.write(tmp_path, BASE_CONFIG), "--out", str(out),
                     "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("runtime failure: ")

    def test_run_divergence_exit_2(self, tmp_path):
        text = BASE_CONFIG.replace("solver.rho = 10.0", "solver.rho = 0.01")
        text = text.replace("solver.x_update = exact_prox",
                            "solver.x_update = first_order")
        text = text.replace("solver.max_iters = 300", "solver.max_iters = 5000")
        cfg = self.write(tmp_path, text)
        assert main(["run", "--config", cfg, "--quiet"]) == 2

    def test_run_descent_floor_below_lipschitz_exit_1(self, tmp_path, capsys):
        # validates as text; only the built problem's L rules it out
        text = (BASE_CONFIG.replace("solver.rho = 10.0", "solver.rho = 0.001")
                .replace("solver.variant = iadmm", "solver.variant = piadmm1")
                + "solver.gamma = descent_floor:1.01\n")
        out = tmp_path / "out"
        assert main(["run", "--config", self.write(tmp_path, text), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        message = "solver.gamma: descent_floor needs solver.rho > L, got rho=0.001, L="
        assert err.startswith(f"config error: {message}") and len(err.splitlines()) == 1
        assert not out.exists()
        # a sweep records it as the point's status and goes on
        spec = self.write(tmp_path, "solver.variant = piadmm1, iadmm\n", name="sweep.cfg")
        assert main(["sweep", "--config", self.write(tmp_path, text), "--sweep", spec,
                     "--out", str(out), "--quiet"]) == 2
        with open(out / "sweep.csv", newline="") as fh:
            fh.readline()
            status = {r["run_index"]: r["status"] for r in csv.DictReader(fh)}
        assert status["0"].startswith(f"error:ConfigError:{message}") and status["1"] == "ok"

    @pytest.mark.parametrize("key, value", [
        ("solver.rho", "nan"), ("solver.rho", "inf"), ("solver.sigma", "nan"),
        ("solver.gamma", "constant:nan"), ("solver.init", "uniform:nan,1"),
    ])
    def test_run_non_finite_number_exit_1(self, tmp_path, capsys, key, value):
        text = BASE_CONFIG.replace("solver.rho = 10.0\n", "") + f"{key} = {value}\n"
        assert main(["run", "--config", self.write(tmp_path, text), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{key}: must be finite" in err

    @pytest.mark.parametrize("rho, reason, rows", [
        ("1e10", "non-finite state at iteration 0 ", 0),
        ("10.0", "metrics overflowed at iteration 0 ", 1),
    ])
    def test_run_diverging_at_iteration_0_exit_2(self, tmp_path, capsys, rho, reason, rows):
        text = DIVERGES_AT_0.replace("solver.rho = 1e10", f"solver.rho = {rho}")
        out = tmp_path / "out"
        assert main(["run", "--config", self.write(tmp_path, text), "--out", str(out)]) == 2
        line = capsys.readouterr().out.strip()
        assert line.startswith(f"accuracy=nan comm_units={rows} ")
        assert f" stop=diverged: {reason}" in line and line.endswith(" DIVERGED")
        assert (out / "summary.txt").read_text() == line + "\n"
        assert len((out / "transcript.csv").read_text().splitlines()) == 3 + rows

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho", ["1e10", "10.0"])
    def test_diverging_at_iteration_0_raises_no_warning(self, tmp_path, capsys, rho):
        text = DIVERGES_AT_0.replace("solver.rho = 1e10", f"solver.rho = {rho}")
        out = str(tmp_path / "out")
        assert main(["run", "--config", self.write(tmp_path, text), "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.rstrip().endswith(" DIVERGED")
        assert run_sweep(text, "solver.variant = iadmm_randinit\n",
                         str(tmp_path / "sweep.csv")) == 1

    def test_sweep_point_diverging_at_iteration_0_fails_with_one_row(self, tmp_path):
        path = tmp_path / "sweep.csv"
        assert run_sweep(DIVERGES_AT_0, "solver.variant = iadmm_randinit, iadmm\n",
                         str(path)) == 1
        with open(path, newline="") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        diverged = [r for r in rows if r["run_index"] == "0"]
        assert len(diverged) == 1 and diverged[0]["k"] == ""
        assert diverged[0]["status"].startswith(
            "error:DivergenceError:non-finite state at iteration 0 (agent 1); ")
        assert {r["status"] for r in rows if r["run_index"] == "1"} == {"ok"}

    def test_seed_override_changes_run(self, tmp_path):
        cfg = self.write(tmp_path, BASE_CONFIG)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet",
              "--seed-override", "77"])
        assert (tmp_path / "a" / "transcript.csv").read_bytes() != (
            tmp_path / "b" / "transcript.csv"
        ).read_bytes()

    def test_attack_end_to_end(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CONFIG + "attack.kind = exact\n")
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
        code = main(["attack", "--config", cfg, "--out", out,
                     "--transcript", os.path.join(out, "transcript.csv")])
        assert code == 0
        assert "max_err_x" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "attack_agent1.csv"))

    def test_attack_prints_why_unscored(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CONFIG + "attack.kind = exact\n")
        other = self.write(tmp_path, BASE_CONFIG.replace("seeds.data = 2", "seeds.data = 99")
                           + "attack.kind = exact\n", name="other.cfg")
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
        transcript = os.path.join(out, "transcript.csv")
        assert main(["attack", "--config", other, "--transcript", transcript]) == 0
        line = capsys.readouterr().out.strip()
        assert line.endswith(" unscored: transcript did not match the config's run")

    def test_attack_reports_unconverged_lsqr(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("solver.variant = iadmm", "solver.variant = iadmm_randinit")
        cfg = self.write(tmp_path, text + "solver.init = uniform:-1,1\nattack.kind = lsq\n")
        capped = self.write(tmp_path, text + "solver.init = uniform:-1,1\nattack.kind = lsq\n"
                            "attack.lsqr_max_iter = 2\n", name="capped.cfg")
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
        transcript = os.path.join(out, "transcript.csv")
        assert main(["attack", "--config", capped, "--transcript", transcript]) == 0
        line = capsys.readouterr().out.strip()
        assert len(line.splitlines()) == 1
        norms = line.split(" residual_norms=")[1].split(",")
        assert " lsqr_converged=no " in line and len(norms) == 2
        assert all(float(r) > 0 for r in norms)
        assert main(["attack", "--config", cfg, "--transcript", transcript]) == 0
        assert "lsqr_converged" not in capsys.readouterr().out

    def attack_rows(self, path) -> list[dict]:
        with open(path, newline="") as fh:
            assert fh.readline() == "#schema=1\n"
            return list(csv.DictReader(fh))

    def test_colluding_attack_cli_scores_target(self, tmp_path, capsys):
        text = (BASE_CONFIG.replace("solver.variant = iadmm", "solver.variant = piadmm1")
                + "solver.init = uniform:-1,1\nsolver.gamma = uniform:0.9,1.1\n"
                "attack.kind = colluding\nattack.target = 2\nattack.coordinates = 1,2\n")
        cfg, out = self.write(tmp_path, text), tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert main(["attack", "--config", cfg, "--out", str(out),
                     "--transcript", str(out / "transcript.csv")]) == 0
        assert capsys.readouterr().out.startswith("attack=colluding agent=2 dims=")
        assert sorted(p.name for p in out.glob("attack_agent*")) == ["attack_agent2.csv"]
        rows = self.attack_rows(out / "attack_agent2.csv")
        assert len(rows) == 2 * 301  # k = 0..K+1 for the last iteration K = 299
        assert all(r[c] != "" and math.isfinite(float(r[c])) for r in rows for c in r)

    def test_backward_attack_cli_scores_last_sender(self, tmp_path):
        text = BASE_CONFIG.replace("solver.stop_eps = 0.0", "solver.stop_eps = 1e-5").replace(
            "solver.max_iters = 300", "solver.max_iters = 20000")
        cfg = self.write(tmp_path, text + "attack.kind = backward\n"
                         "attack.eps = 1e-5\nattack.coordinates = 1,2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        with open(out / "transcript.csv") as fh:
            transcript = Transcript.read_csv(fh)
        assert transcript.stopped_by_eps
        assert main(["attack", "--config", cfg, "--out", str(out), "--quiet",
                     "--transcript", str(out / "transcript.csv")]) == 0
        last = int(transcript.senders[-1])
        assert sorted(p.name for p in out.glob("attack_agent*")) == [f"attack_agent{last}.csv"]
        rows = self.attack_rows(out / f"attack_agent{last}.csv")
        assert all(r[c] != "" for r in rows for c in r)
        # the last token pins the final state within the run's stop_eps
        assert max(float(r["abs_err_x"]) for r in rows[-2:]) <= 1e-5

    def test_backward_attack_on_unconverged_transcript_exit_1(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CONFIG + "attack.kind = backward\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert main(["attack", "--config", cfg, "--out", str(out),
                     "--transcript", str(out / "transcript.csv")]) == 1
        assert capsys.readouterr().err == ("config error: transcript does not declare "
                                           "convergence within eps=0.0001\n")
        assert not list(out.glob("attack_agent*"))

    def spy_regenerate(self, monkeypatch) -> list:
        """Record every scoring replay run_attack makes."""
        import ringadmm.harness as harness

        calls, real = [], harness._regenerate
        monkeypatch.setattr(harness, "_regenerate", lambda cfg: calls.append(cfg) or real(cfg))
        return calls

    def run_then_attack(self, tmp_path, run_text, attack_text, quiet=False):
        """Exit code of `ringadmm attack` on the transcript `run_text` makes."""
        out = tmp_path / "out"
        cfg = self.write(tmp_path, run_text)
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        acfg = self.write(tmp_path, attack_text, name="attack.cfg")
        return main(["attack", "--config", acfg, "--out", str(out),
                     "--transcript", str(out / "transcript.csv")] + ["--quiet"] * quiet)

    @pytest.mark.parametrize("kind", ["exact", "lsq", "backward", "colluding"])
    def test_attack_replays_the_run_once(self, tmp_path, monkeypatch, capsys, kind):
        text = BASE_CONFIG.replace("solver.stop_eps = 0.0", "solver.stop_eps = 1e-5").replace(
            "solver.max_iters = 300", "solver.max_iters = 20000")
        calls = self.spy_regenerate(monkeypatch)
        assert self.run_then_attack(tmp_path, text, text + f"attack.kind = {kind}\n"
                                    "attack.eps = 1e-5\n") == 0
        assert len(calls) == 1
        assert " unscored" not in capsys.readouterr().out

    @pytest.mark.parametrize("iters, attack, message, replays", [
        (300, "backward", "transcript does not declare convergence within eps=0.0001", 0),
        (4, "lsq", "pin_last_cycle needs at least one full cycle of iterations", 0),
        # agents 1..4 act in the four iterations; colluding replays before it
        # estimates, since its estimate reads the colluders' final duals
        (4, "colluding\nattack.target = 6", "agent 6 never activates in the transcript", 1),
        (300, "lsq\nattack.lsqr_tol = 0", "attack.lsqr_tol: must be positive", 0),
    ])
    def test_attack_that_does_not_fit_exit_1(self, tmp_path, monkeypatch, capsys, iters, attack,
                                             message, replays):
        text = BASE_CONFIG.replace("solver.max_iters = 300", f"solver.max_iters = {iters}")
        calls = self.spy_regenerate(monkeypatch)
        assert self.run_then_attack(tmp_path, text, text + f"attack.kind = {attack}\n") == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert len(calls) == replays
        assert not list((tmp_path / "out").glob("attack_agent*"))

    @pytest.mark.parametrize("variant, suffix", [("iadmm", ""),
                                                 ("iadmm_randinit",
                                                  " init_assumption_violated=yes")])
    def test_exact_attack_line_shows_the_broken_start(self, tmp_path, capsys, variant, suffix):
        text = (BASE_CONFIG.replace("solver.variant = iadmm", f"solver.variant = {variant}")
                + "solver.init = uniform:-1,1\nattack.kind = exact\nattack.agents = 3,1\n")
        assert self.run_then_attack(tmp_path, text, text) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == ["agent=1", "agent=3"]
        assert all(re.fullmatch(r"attack=exact_recursion agent=\d dims=None max_err_x=\S+ "
                                r"max_err_y=\S+" + suffix, line) for line in lines)
        assert self.run_then_attack(tmp_path, text, text, quiet=True) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fault", ["short_row", "k_not_sequential", "sender_zero",
                                       "nan_z", "missing_meta_key", "header_without_z"])
    def test_attack_on_malformed_transcript_exit_1(self, tmp_path, capsys, fault):
        from test_records import MALFORMED, VALID

        old, new, message = MALFORMED[fault]
        text = BASE_CONFIG.replace("network.n_agents = 6", "network.n_agents = 3")
        cfg = self.write(tmp_path, text.replace("network.eta = 0.5", "network.eta = 1.0"))
        transcript = self.write(tmp_path, VALID.replace(old, new, 1), name="transcript.csv")
        assert main(["attack", "--config", cfg, "--transcript", transcript, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("transcript error: ") and re.search(message, err)
        assert len(err.splitlines()) == 1

    def test_sweep_cli(self, tmp_path):
        cfg = self.write(tmp_path, BASE_CONFIG)
        spec = self.write(tmp_path, "solver.rho = 5, 10\n", name="sweep.cfg")
        code = main(["sweep", "--config", cfg, "--sweep", spec,
                     "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_sweep_cli_bad_seed_exit_1(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CONFIG)
        spec = self.write(tmp_path, "solver.rho = 5\nseed = 1, x\n", name="sweep.cfg")
        assert main(["sweep", "--config", cfg, "--sweep", spec, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "config error: seed: expected integer, got 'x'\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_cli_negative_seed_exit_1(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CONFIG)
        spec = self.write(tmp_path, "solver.rho = 5\nseed = -1, 2\n", name="sweep.cfg")
        assert main(["sweep", "--config", cfg, "--sweep", spec, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: seed: expected non-negative integer, got -1\n")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("base, spec, unknown", [
        ("", "solver.rhoo = 1, 2\nseed = 1, 2\n", "['solver.rhoo']"),
        ("solver.typo = 1\n", "solver.rho = 5, 10\n", "['solver.typo']"),
        ("solver.typo = 1\n", "solver.rhoo = 1\n", "['solver.rhoo', 'solver.typo']"),
    ])
    def test_sweep_cli_unknown_key_exit_1(self, tmp_path, capsys, base, spec, unknown):
        cfg = self.write(tmp_path, BASE_CONFIG + base)
        spec = self.write(tmp_path, spec, name="sweep.cfg")
        assert main(["sweep", "--config", cfg, "--sweep", spec, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", f"config error: unknown config keys: {unknown}\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_cli_has_no_seed_override(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CONFIG)
        spec = self.write(tmp_path, "solver.rho = 5\n", name="sweep.cfg")
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", cfg, "--sweep", spec, "--out", str(tmp_path),
                  "--seed-override", "5"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed-override 5" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_run_negative_seed_in_config_exit_1(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CONFIG.replace("seeds.data = 2", "seeds.data = -3"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: seeds.data: must be >= 0, got -3\n"
        assert not (tmp_path / "out").exists()

    def test_run_negative_seed_override_exit_1(self, tmp_path, capsys):
        cfg = self.write(tmp_path, BASE_CONFIG)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed-override", "-7"]) == 1
        assert capsys.readouterr().err == "config error: seeds.graph: must be >= 0, got -7\n"
        assert not (tmp_path / "out").exists()

    def test_verify_cli_passes(self, capsys):
        assert main(["verify", "--quiet"]) == 0

    def test_verify_cli_exit_3_on_failure(self, monkeypatch):
        from ringadmm import verify

        monkeypatch.setattr(
            verify, "ALL_CHECKS",
            [("always_fails", lambda: (False, "forced"))],
        )
        assert main(["verify", "--quiet"]) == 3
