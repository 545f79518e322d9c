import csv
import io
import os
import re

import numpy as np
import pytest

from conftest import make_cfg
from ringadmm.cli import main
from ringadmm.config import ConfigError, ExperimentConfig, parse_kv_text
from ringadmm.harness import parse_sweep_spec, run_attack, run_experiment, run_sweep
from ringadmm.records import Transcript
from ringadmm.solver import GammaSpec, InitSpec, Variant


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
        reports = run_attack(cfg, result.transcript, out_dir=str(tmp_path))
        rep = reports[1]
        assert rep.err_x[1].max() <= 1e-9
        assert (tmp_path / "attack_agent1.csv").exists()

    def test_attack_unscored_on_mismatch(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "attack.kind = exact\n")
        result, _ = run_experiment(cfg)
        other = ExperimentConfig.from_text(BASE_CONFIG.replace(
            "seeds.data = 2", "seeds.data = 99"
        ) + "attack.kind = exact\n")
        reports = run_attack(other, result.transcript)
        assert 1 not in reports[1].err_x

    def test_attack_scores_only_the_exported_agents(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "attack.kind = exact\n"
                                         "attack.agents = 2,5\n")
        result, _ = run_experiment(cfg)
        rep = run_attack(cfg, result.transcript)[2]
        assert rep.agents == [1, 2, 3, 4, 5, 6]
        assert sorted(rep.err_x) == sorted(rep.truth_y) == [2, 5]
        assert rep.unscored == ""

    def test_attack_unscored_reason_from_the_config(self, monkeypatch):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + "attack.kind = exact\n")
        result, _ = run_experiment(cfg)
        # a config that validates but cannot run: its descent floor needs rho > L
        bad = ExperimentConfig.from_text(
            BASE_CONFIG.replace("solver.rho = 10.0", "solver.rho = 0.001")
            .replace("solver.variant = iadmm", "solver.variant = piadmm1")
            + "attack.kind = exact\nsolver.gamma = descent_floor:1.01\n")
        monkeypatch.setattr(result.transcript, "rho", 0.001)
        rep = run_attack(bad, result.transcript)[1]
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

    def test_run_missing_config_exit_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_run_divergence_exit_2(self, tmp_path):
        text = BASE_CONFIG.replace("solver.rho = 10.0", "solver.rho = 0.01")
        text = text.replace("solver.x_update = exact_prox",
                            "solver.x_update = first_order")
        text = text.replace("solver.max_iters = 300", "solver.max_iters = 5000")
        cfg = self.write(tmp_path, text)
        assert main(["run", "--config", cfg, "--quiet"]) == 2

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

    def test_verify_cli_passes(self, capsys):
        assert main(["verify", "--quiet"]) == 0

    def test_verify_cli_exit_3_on_failure(self, monkeypatch):
        from ringadmm import verify

        monkeypatch.setattr(
            verify, "ALL_CHECKS",
            [("always_fails", lambda: (False, "forced"))],
        )
        assert main(["verify", "--quiet"]) == 3
