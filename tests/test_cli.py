import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermoevo
from thermoevo import (ModelFamily, ModelSpec, _json, _lapack, assemble_material_law, cli,
                       evolution, pattern_table)
from thermoevo.cli import RunConfig, main, run
from thermoevo.errors import ConfigError
from thermoevo.models import COEFFICIENTS


def ls_model(gamma=0.5):
    return {"family": "lord_shulman",
            "coefficients": {"rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": gamma,
                             "kappa": 1.0, "a0": 1.0}}


#: no heat capacity and no temperature damping (nu = 0, a1 = 0): the
#: certificate is inconclusive and the algebraic theta row is not index-1
NOT_INDEX_ONE_MODEL = {"family": "custom", "coefficients": {
    "rho0": 1.0, "nu": 0.0, "C": 1.0, "Gamma": 0.0, "a0": 1.0, "a2": 1.0}}


def sim_payload(**overrides):
    payload = {
        "model": ls_model(gamma=0.0),
        "grid": {"L": 1.0, "n_cells": 16},
        "time": {"t_max": 0.5, "dt": 2**-8, "rho": 2.0, "scheme": "trapezoidal"},
        "forcing": {"kind": "gaussian_pulse", "center": 0.1, "width": 0.03,
                    "block": "h", "spatial_profile": "mode_1"},
    }
    payload.update(overrides)
    return payload


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"model": ls_model(), "surprise": 1}, "check")

    def test_unknown_nested_key(self):
        bad = sim_payload()
        bad["forcing"]["sneaky"] = 1
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad, "simulate")

    def test_missing_section(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"model": ls_model()}, "simulate")

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"model": {"family": "bogus", "coefficients": {}}},
                                "check")

    def test_non_finite_number(self):
        bad = sim_payload()
        bad["time"]["dt"] = float("nan")
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad, "simulate")

    def test_unknown_scheme(self):
        bad = sim_payload()
        bad["time"]["scheme"] = "leapfrog"
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad, "simulate")

    def test_custom_rational_coefficient(self):
        payload = {"model": {"family": "custom", "coefficients": {
            "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0,
            "a2": {"num": [1.0], "den": [2.0, 1.0]}}}}
        config = RunConfig.from_dict(payload, "check")
        law = assemble_material_law(config.spec)
        assert law.a2[law.a2_index[0]].den.size == 2

    def test_tolerance_overrides(self):
        payload = sim_payload(tolerances={"solver_vs_oracle": 0.5})
        config = RunConfig.from_dict(payload, "verify", out_dir="unused")
        assert config.tolerances["solver_vs_oracle"] == 0.5
        assert config.tolerances["bound_slack"] == 0.05


class TestCheckMode:
    def test_satisfied_exit_zero(self, tmp_path):
        config = RunConfig.from_dict({"model": ls_model()}, "check",
                                     out_dir=tmp_path)
        stream = io.StringIO()
        assert run(config, stream) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "satisfied"

    def test_violated_exit_two_with_witness(self, tmp_path):
        payload = {"model": {"family": "dpl_i", "coefficients": {
            "rho0": 1, "nu": 1, "C": 1, "Gamma": 0.5, "kappa": 1,
            "n1": 0.5, "n2": -0.25}}}
        config = RunConfig.from_dict(payload, "check", out_dir=tmp_path)
        stream = io.StringIO()
        assert run(config, stream) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "violated"
        assert len(report["witnesses"]) >= 1

    def test_deterministic_bytes(self, tmp_path):
        config = RunConfig.from_dict({"model": ls_model()}, "check")
        out1, out2 = io.StringIO(), io.StringIO()
        run(config, out1)
        run(config, out2)
        assert out1.getvalue() == out2.getvalue()


class TestPatternsMode:
    def test_single_model(self):
        config = RunConfig.from_dict({"model": ls_model()}, "patterns")
        stream = io.StringIO()
        assert run(config, stream) == 0
        want = pattern_table(assemble_material_law(config.spec))
        assert stream.getvalue() == want

    def test_all_families(self, tmp_path):
        config = RunConfig.from_dict({}, "patterns", out_dir=tmp_path,
                                     all_families=True)
        stream = io.StringIO()
        assert run(config, stream) == 0
        text = stream.getvalue()
        assert text.count("family:") == 8
        assert (tmp_path / "patterns.txt").read_text() == text


class TestSimulateMode:
    def test_emits_artifacts(self, tmp_path):
        config = RunConfig.from_dict(sim_payload(), "simulate", out_dir=tmp_path)
        assert run(config, io.StringIO()) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {"v.csv", "sigma.csv", "theta_big.csv", "q.csv", "u.csv",
                "epsilon.csv", "theta.csv", "eta.csv", "energy.csv",
                "manifest.json"} <= names
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["verdict"] == "satisfied"
        assert manifest["rho_used"] == 2.0
        assert manifest["config"]["grid"]["n_cells"] == 16

    def test_manifest_bytes_deterministic(self, tmp_path):
        config1 = RunConfig.from_dict(sim_payload(), "simulate",
                                      out_dir=tmp_path / "a")
        config2 = RunConfig.from_dict(sim_payload(), "simulate",
                                      out_dir=tmp_path / "b")
        run(config1, io.StringIO())
        run(config2, io.StringIO())
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
            (tmp_path / "b" / "manifest.json").read_bytes()
        assert (tmp_path / "a" / "theta_big.csv").read_bytes() == \
            (tmp_path / "b" / "theta_big.csv").read_bytes()

    def test_output_required(self):
        config = RunConfig.from_dict(sim_payload(), "simulate")
        with pytest.raises(ConfigError):
            run(config, io.StringIO())


class TestVerifyMode:
    def test_within_tolerances(self, tmp_path):
        config = RunConfig.from_dict(sim_payload(), "verify", out_dir=tmp_path)
        assert run(config, io.StringIO()) == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["failures"] == []
        assert payload["comparison"]["status"] == "ok"
        assert payload["comparison"]["overall"] <= 0.01

    def test_impossible_tolerance_fails_with_exit_three(self, tmp_path):
        payload = sim_payload(tolerances={"solver_vs_oracle": 1e-15})
        config = RunConfig.from_dict(payload, "verify", out_dir=tmp_path)
        stream = io.StringIO()
        assert run(config, stream) == 3
        assert "solver_vs_oracle" in stream.getvalue()

    def test_failed_check_reads_failed(self, tmp_path):
        payload = sim_payload(tolerances={"solver_vs_oracle": 1e-12})
        stream = io.StringIO()
        assert run(RunConfig.from_dict(payload, "verify", out_dir=tmp_path), stream) == 3
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["comparison"]["status"] == "failed"
        assert report["comparison"]["overall"] > 1e-12
        assert report["bound_check"]["status"] == "ok"
        assert [line.split()[0] for line in report["failures"]] == ["solver_vs_oracle"]
        assert stream.getvalue().startswith("FAIL solver_vs_oracle")

    def test_delayed_step_exercises_causality(self, tmp_path):
        payload = sim_payload()
        payload["forcing"] = {"kind": "delayed_step", "delay": 0.25,
                              "block": "h", "spatial_profile": "mode_1"}
        config = RunConfig.from_dict(payload, "verify", out_dir=tmp_path)
        assert run(config, io.StringIO()) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["causality"]["status"] == "ok"
        assert report["causality"]["leakage"] == 0.0

    def test_verify_marches_once(self, tmp_path, monkeypatch):
        payload = sim_payload()
        payload["forcing"] = {"kind": "delayed_step", "delay": 0.25,
                              "block": "h", "spatial_profile": "mode_1"}
        calls = []
        march = evolution.solve

        def counting(problem):
            calls.append(problem)
            return march(problem)

        monkeypatch.setattr(cli, "solve", counting)
        monkeypatch.setattr(evolution, "solve", counting)
        config = RunConfig.from_dict(payload, "verify", out_dir=tmp_path)
        assert run(config, io.StringIO()) == 0
        assert len(calls) == 1
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["causality"]["status"] == "ok"

    def test_readme_example_skips_oracle_comparison(self, tmp_path):
        # the README's example law is coupled, which the oracle rejects
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        config_path = tmp_path / "run.json"
        config_path.write_text(example)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["comparison"]["status"] == "skipped"
        assert "uncoupled" in report["comparison"]["reason"]
        assert report["bound_check"]["status"] == "ok"
        assert report["failures"] == []

    def test_inapplicable_bound_check_skipped(self, tmp_path):
        # Re a2 turns negative on the line Re s = rho (a2(z) = (1 - 2z) /
        # (1 + z/2) is -2/3 at z = 1) although a2(0) = 1 certifies the law
        payload = sim_payload(
            model={"family": "custom", "coefficients": {
                "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0,
                "a2": {"num": [1.0, -2.0], "den": [1.0, 0.5]}}},
            grid={"L": 1.0, "n_cells": 8},
            time={"t_max": 0.25, "dt": 2**-7, "rho": 1.0, "scheme": "trapezoidal"})
        payload["forcing"]["width"] = 0.05
        config = RunConfig.from_dict(payload, "verify", out_dir=tmp_path)
        assert run(config, io.StringIO()) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["bound_check"]["status"] == "skipped"
        assert "not positive" in report["bound_check"]["reason"]
        assert report["failures"] == []

    @pytest.mark.parametrize("model, rho, reason", [
        (NOT_INDEX_ONE_MODEL, 2.0, "bound check requires a satisfied well-posedness verdict"),
        # a2(z) = 1 / (1 - z/2) has its pole at s = 1/2: rho_min lies above it
        ({"family": "custom", "coefficients": {
            "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0,
            "a2": {"num": [1.0], "den": [1.0, -0.5]}}},
         0.25, "run weight rho=0.25 below certified rho_min=0.501187"),
    ], ids=["inconclusive", "rho_below_rho_min"])
    def test_bound_check_skip_names_failed_precondition(self, tmp_path, model, rho, reason):
        payload = sim_payload(model=model, grid={"L": 1.0, "n_cells": 8})
        payload["time"]["rho"] = rho
        assert run(RunConfig.from_dict(payload, "verify", out_dir=tmp_path), io.StringIO()) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["bound_check"] == {"status": "skipped", "reason": reason}

    def test_step_at_window_start_skips_causality(self, tmp_path):
        payload = sim_payload()
        payload["forcing"] = {"kind": "delayed_step", "delay": 0.0,
                              "block": "h", "spatial_profile": "mode_1"}
        stream = io.StringIO()
        assert run(RunConfig.from_dict(payload, "verify", out_dir=tmp_path), stream) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["causality"] == {
            "status": "skipped", "leakage": None,
            "reason": "forcing support touches the window start"}
        assert "verify: all checks within tolerance (skipped: causality)" in \
            stream.getvalue().splitlines()

    def test_weight_past_line_range_skips_bound(self, tmp_path):
        # the bound constant is finite at rho = 1e305, but exp(-rho t) is 0
        # past t = 0: the check is skipped for the underflow
        payload = json.loads(readme_config(tmp_path).read_text())
        payload["time"]["rho"] = 1e305
        config_path = tmp_path / "far.json"
        config_path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["bound_check"] == {
            "status": "skipped",
            "reason": "the rho-weighted norm of a nonzero trajectory underflows to 0 "
                      "at rho=1e+305"}

    def test_underflowing_weight_skips_comparison_and_bound(self, tmp_path):
        # exp(-2 rho t) is 0 past t = 0 at rho = 1e300: nothing can be compared
        payload = sim_payload()
        payload["time"]["rho"] = 1e300
        assert run(RunConfig.from_dict(payload, "verify", out_dir=tmp_path), io.StringIO()) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        reason = "the rho-weighted norm of a nonzero trajectory underflows to 0 at rho=1e+300"
        for entry in ("comparison", "bound_check"):
            assert report[entry] == {"status": "skipped", "reason": reason}

    def test_no_check_ran_is_said(self, tmp_path):
        # at rho = 1e300 the comparison and the bound check are skipped and a
        # pulse has no causality check: the summary line must not read as a pass
        payload = sim_payload()
        payload["time"]["rho"] = 1e300
        stream = io.StringIO()
        assert run(RunConfig.from_dict(payload, "verify", out_dir=tmp_path), stream) == 0
        lines = stream.getvalue().splitlines()
        assert "verify: no check ran (skipped: comparison, causality, bound_check)" in lines
        assert not any("within tolerance" in line for line in lines)
        report = json.loads((tmp_path / "verify.json").read_text())
        assert list(report) == ["comparison", "causality", "bound_check", "tolerances",
                                "failures"]

    def test_pass_line_names_skipped_checks(self, tmp_path):
        stream = io.StringIO()
        assert run(RunConfig.from_dict(sim_payload(), "verify", out_dir=tmp_path), stream) == 0
        assert "verify: all checks within tolerance (skipped: causality)" in \
            stream.getvalue().splitlines()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_reference_skips_comparison(self, tmp_path):
        # on a grid of length 1e-300 the wavenumbers overflow the mode systems
        payload = sim_payload()
        payload["grid"]["L"] = 1e-300
        assert run(RunConfig.from_dict(payload, "verify", out_dir=tmp_path), io.StringIO()) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["comparison"] == {
            "status": "skipped",
            "reason": "spectral reference is not finite: its mode systems overflow"}

    def test_underflowing_space_time_norm_names_h(self, tmp_path):
        # on a grid of length 1e-300 the states are about 1e-301 and sqrt(h)
        # about 2.5e-151: their product is below the float range, whatever rho
        payload = sim_payload()
        payload["grid"]["L"] = 1e-300
        assert run(RunConfig.from_dict(payload, "verify", out_dir=tmp_path), io.StringIO()) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["bound_check"] == {
            "status": "skipped",
            "reason": "the h-weighted norm of a nonzero trajectory underflows to 0 at h=6.25e-302"}

    def test_short_window_bound_is_judged(self, tmp_path):
        # the weighted solution is still near its peak at the window end
        # (tail_ratio about 0.5), and the bound is judged all the same
        payload = sim_payload(grid={"L": 1.0, "n_cells": 8},
                              tolerances={"bound_slack": -0.99})
        payload["time"].update(t_max=0.25, rho=1.0)
        assert run(RunConfig.from_dict(payload, "verify", out_dir=tmp_path), io.StringIO()) == 3
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["bound_check"]["status"] == "failed"
        assert report["bound_check"]["tail_ratio"] > 1e-6
        assert report["bound_check"]["lhs"] <= report["bound_check"]["rhs"]
        assert [line.split()[0] for line in report["failures"]] == ["a_priori_bound"]

    def test_not_index_one_law_skips_oracle_comparison(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(sim_payload(
            model=NOT_INDEX_ONE_MODEL, grid={"L": 1.0, "n_cells": 8})))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["comparison"]["status"] == "skipped"
        assert "not index-1 reducible" in report["comparison"]["reason"]

    def test_bound_slack_override_decides_bound_check(self, tmp_path):
        # lhs is about a sixth of rhs here (window tail ~1e-13), so the
        # default slack passes and a slack of -0.99 must fail the bound alone
        payload = sim_payload(
            model={"family": "dpl_i", "coefficients": {
                "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0, "kappa": 1.0,
                "n1": 0.5, "n2": 0.25}},
            grid={"L": 1.0, "n_cells": 8},
            time={"t_max": 4.0, "dt": 2**-8, "rho": 4.0, "scheme": "trapezoidal"},
            tolerances={"bound_slack": -0.99})
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 3
        report = json.loads((out / "verify.json").read_text())
        assert report["comparison"]["status"] == "ok"
        assert report["bound_check"]["status"] == "failed"
        assert report["bound_check"]["lhs"] <= report["bound_check"]["rhs"] * 1.05
        assert len(report["failures"]) == 1
        assert report["failures"][0].startswith("a_priori_bound")


class TestMain:
    def test_end_to_end_check(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"model": ls_model()}))
        assert main(["check", "--config", str(config_path)]) == 0
        assert "satisfied" in capsys.readouterr().out

    def test_check_inconclusive_exits_two(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"model": NOT_INDEX_ONE_MODEL}))
        assert main(["check", "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"
        assert json.loads((tmp_path / "report.json").read_text())["verdict"] == "inconclusive"

    def test_bad_json_is_input_error(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text("{not json")
        assert main(["check", "--config", str(config_path)]) == 1

    def test_config_not_utf8_is_input_error(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_bytes(b'{"model": {"family": "classical\xff"}}')
        assert main(["check", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON: ") and err.count("\n") == 1
        assert "can't decode byte 0xff" in err

    def test_integer_past_the_digit_limit_is_input_error(self, tmp_path, capsys):
        # json refuses an integer of more than sys.get_int_max_str_digits()
        # digits (4300 by default) with a plain ValueError
        model = json.dumps({"model": ls_model()}).replace('"rho0": 1.0', '"rho0": ' + "1" * 5000)
        assert "1" * 5000 in model
        config_path = tmp_path / "run.json"
        config_path.write_text(model)
        assert main(["check", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON: ") and err.count("\n") == 1

    def test_missing_config_file(self, capsys):
        assert main(["check", "--config", "/nonexistent/nope.json"]) == 1

    def test_patterns_all_without_config(self, capsys):
        assert main(["patterns", "--all"]) == 0
        assert capsys.readouterr().out.count("family:") == 8

    def test_invalid_coefficient_exit_one(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"model": {
            "family": "classical",
            "coefficients": {"rho0": 1, "nu": 1, "C": 1, "Gamma": 0,
                             "kappa": 1, "zeta0": 3}}}))
        assert main(["check", "--config", str(config_path)]) == 1


def readme_config(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    config_path = tmp_path / "run.json"
    config_path.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    return config_path


#: strings that JSON must escape (control characters, quote, backslash) and one it keeps
AWKWARD_STRINGS = ["tab\there", "line\nbreak", 'say "hi"', "back\\slash", "caf\u00e9"]


class TestJsonStrings:
    def test_strings_and_keys_round_trip(self):
        obj = {text: [text, {text: text}] for text in AWKWARD_STRINGS}
        assert json.loads(_json.dumps(obj)) == obj

    def test_plain_strings_keep_their_bytes(self):
        # escaped as before: the quote and the backslash only
        assert _json.dumps({"key": 'a"b\\c\u00e9'}) == '{\n  "key": "a\\"b\\\\c\u00e9"\n}\n'

    def test_output_path_with_control_characters_gives_valid_manifest(self, tmp_path):
        output = str(tmp_path / "out\tdir\nnext")
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(sim_payload(output=output)))
        assert main(["simulate", "--config", str(config_path)]) == 0
        manifest = json.loads(Path(output, "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["output"] == output


class TestArtifactWrites:
    def test_out_is_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--config", str(readme_config(tmp_path)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err

    def test_unwritable_table_names_its_file(self, tmp_path, capsys, monkeypatch):
        # every table lands in some writer; with 4 shares most are forked
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        out = tmp_path / "out"
        (out / "energy.csv").mkdir(parents=True)
        assert main(["simulate", "--config", str(readme_config(tmp_path)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "energy.csv" in err
        assert "Traceback" not in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not (out / "manifest.json").exists()

    def test_readme_run_bytes_match_one_share_write(self, tmp_path, monkeypatch):
        config_path = readme_config(tmp_path)
        outputs = {}
        for cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"cpus{cpus}"
            assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
            outputs[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(outputs[1]) == 10 and outputs[4] == outputs[1]


def _custom_a2(coefficient):
    payload = sim_payload()
    payload["model"] = {"family": "custom", "coefficients": {
        "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0, "a2": coefficient}}
    return payload


def _with(section, key, value):
    payload = sim_payload()
    payload[section][key] = value
    return payload


def _custom_with(name, value):
    payload = _custom_a2({"num": [1.0], "den": [2.0, 1.0]})
    payload["model"]["coefficients"][name] = value
    return payload


def _with_kappa_cells(value):
    """The simulate payload with a per-cell kappa whose last cell is ``value``."""
    payload = sim_payload()
    n_cells = payload["grid"]["n_cells"]
    payload["model"]["coefficients"]["kappa"] = [1.0] * (n_cells - 1) + [value]
    return payload


def _t_max_off_grid():
    payload = sim_payload()
    payload["time"].update(t_max=0.1, dt=0.03)
    return payload


def _steps(n_steps):
    payload = sim_payload()
    payload["time"]["t_max"] = n_steps * payload["time"]["dt"]
    return payload


def _steps_past_float_range():
    payload = _with("time", "dt", 1e-300)
    payload["time"]["t_max"] = 1e10
    return payload


def _march_overflow():
    # a negative conductivity makes the heat equation run backward in time
    payload = sim_payload(model={"family": "classical", "coefficients": {
        "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0, "kappa": -1.0}},
        grid={"L": 1.0, "n_cells": 8})
    payload["time"]["t_max"] = 8.0
    return payload


def _huge_heat_capacity():
    model = ls_model()
    model["coefficients"]["nu"] = 9e307
    return model


CONFIG_HOLES = {
    "rational_without_den": (_custom_a2({"num": [1.0]}), "and 'den'"),
    "rational_scalar_num": (_custom_a2({"num": 1.0, "den": [1.0]}),
                            "'model.coefficients.a2': numerator must be a non-empty list"),
    "rational_scalar_den": (_custom_a2({"num": [1.0], "den": 2.0}),
                            "'model.coefficients.a2': denominator must be a non-empty list"),
    "rational_ragged_num": (_custom_a2({"num": [[[1.0], [1.0, 2.0]]], "den": [1.0]}),
                            "'model.coefficients.a2': numerator must be a non-empty list"),
    "rational_num_with_boolean": (_custom_a2({"num": [1.0, True], "den": [1.0, 0.5]}),
                                  "'model.coefficients.a2': numerator must be a non-empty list"),
    # JSON true read as 1.0 in one cell
    "coefficient_list_with_boolean": (_with_kappa_cells(True), "coefficient 'kappa' must be"),
    "n_cells_fraction": (_with("grid", "n_cells", 2.7), "grid.n_cells"),
    "n_cells_string": (_with("grid", "n_cells", "8"), "grid.n_cells"),
    "n_cells_bool": (_with("grid", "n_cells", True), "grid.n_cells"),
    "number_as_string": (_with("grid", "L", "1.0"), "grid.L"),
    "integer_too_large_for_float": (_with("grid", "L", 10**400), "grid.L"),
    "t_max_not_multiple_of_dt": (_t_max_off_grid(), "not a multiple of dt"),
    "coefficients_not_object": (_with("model", "coefficients", [1.0]),
                                "model.coefficients"),
    "rational_catalog_coefficient": (
        sim_payload(model={"family": "lord_shulman", "coefficients": dict(
            ls_model()["coefficients"], kappa={"num": [1.0], "den": [1.0]})}),
        "'kappa' cannot be a rational function"),
    "rational_custom_inertia": (_custom_with("a0", {"num": [1.0], "den": [1.0]}),
                                "'a0' cannot be a rational function"),
    "custom_lag_matrix": (_custom_with("n0", [[1.0, 0.0], [0.0, 1.0]]),
                          "coefficient 'n0' must be a real finite number or a list of them"),
    "custom_density_not_square": (_custom_with("rho0", [[1.0, 2.0]]),
                                  "coefficient 'rho0' must be a real finite number or a list "
                                  "of them"),
    "custom_matrix_a0": (_custom_with("a0", [[1.0, 0.0], [0.0, 0.0]]),
                         "coefficient 'a0' must be a real finite number or a list of them"),
    "spatial_profile_number": (_with("forcing", "spatial_profile", 3),
                               "forcing.spatial_profile"),
    # int() would read these as mode 10, 1 and 1
    "mode_index_underscore": (_with("forcing", "spatial_profile", "mode_1_0"),
                              "bad spatial profile 'mode_1_0'"),
    "mode_index_sign": (_with("forcing", "spatial_profile", "mode_+1"),
                        "bad spatial profile 'mode_+1'"),
    "mode_index_space": (_with("forcing", "spatial_profile", "mode_ 1"),
                         "bad spatial profile 'mode_ 1'"),
    "coefficient_products_overflow": (sim_payload(model=ls_model(gamma=1e160)),
                                      "instantaneous block is not finite"),
    # M + M^T overflows past 9e307, after the finiteness check of M alone
    "symmetrization_overflows": (sim_payload(model=_huge_heat_capacity()),
                                 "instantaneous block is not finite"),
    # h = 5e-324 / 8 underflows to 0
    "cell_size_underflows": (_with("grid", "L", 5e-324), "cell size L/n_cells"),
    # the trapezoidal rule's midpoint form solves for w+ + w from 2 c w + f,
    # about twice the state, so it overflows a step before the state would
    "march_overflows": (_march_overflow(),
                        "the march overflows: the state is not finite from step 723 "
                        "(t = 2.82422)"),
    # (t - center) / width overflows: the pulse would be zero at every step
    "pulse_center_overflows": (_with("forcing", "center", 1e308), "pulse center 1e+308"),
    "pulse_width_overflows": (_with("forcing", "width", 1e-310), "pulse width 1e-310"),
    # a2 = 1 / (1 + 0.2 z + z^2) certifies, but its poles s = -0.1 +- 0.994987j are not marched
    "custom_complex_pole_pair": (_custom_a2({"num": [1.0], "den": [1.0, 0.2, 1.0]}),
                                 "complex pole s = -0.1+0.994987j"),
    # a2 = z^3 / ((1 + z)(2 + z)(3 + z)(2.0078125 + z)): real simple poles so
    # close (s = -0.5 and -0.498) that the partial fractions' residues cancel
    # past the realization's self check, 4.6e-9 against 1e-9 relative
    "custom_close_poles": (_custom_a2({"num": [0, 0, 0, 1],
                                       "den": [12.046875, 28.0859375, 23.046875, 8.0078125, 1.0]}),
                           "realization transfer mismatch"),
    "output_not_string": (sim_payload(output=3), "'output'"),
    # arrays past physical memory: refused before any of them is allocated
    "cells_past_memory": (_with("grid", "n_cells", 10**12), "GiB of physical memory"),
    # 1 / n_cells would overflow converting the count to a float
    "cells_past_float_range": (_with("grid", "n_cells", 10**400), "n_cells is too large"),
    "steps_past_memory": (_steps(10**12), "GiB of physical memory"),
    # the step count in the error line as compactly as the bytes
    "steps_past_memory_compact": (_with("time", "dt", 1e-300), "(5e+299 time steps, 62 unknowns"),
    "steps_past_float_range": (_steps_past_float_range(), "t_max=1e+10 over dt=1e-300"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_HOLES))
def test_config_hole_exits_one_with_error_line(case, tmp_path, capsys):
    payload, message = CONFIG_HOLES[case]
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def _law_arrays(law) -> list:
    """Every array of ``law``: the coefficients, the indices and the distinct laws."""
    return [getattr(law, name) for name in (*COEFFICIENTS, "n0", "a1_index", "a2_index")] + [
        part for r in law.a1 + law.a2 for part in (r.num, r.den)]


@pytest.mark.parametrize("form", ["scalar", "list"])
def test_integer_past_int64_is_the_double_float_gives(form):
    # 2**64 fits no int64 or uint64; the CLI and the API read the same double
    big, double = 2**64, 18446744073709551616.0
    assert float(big) == double
    value, want = (big, double) if form == "scalar" else ([big, 1.0], [double, 1.0])
    model = ls_model()
    want_law = assemble_material_law(ModelSpec(ModelFamily.LORD_SHULMAN,
                                               dict(model["coefficients"], C=want)))
    model["coefficients"]["C"] = value
    cli_spec = RunConfig.from_dict(json.loads(json.dumps({"model": model})), "check").spec
    api_spec = ModelSpec(ModelFamily.LORD_SHULMAN, model["coefficients"])
    for spec in (cli_spec, api_spec):
        got = _law_arrays(assemble_material_law(spec))
        assert len(got) == len(_law_arrays(want_law))
        assert all(np.array_equal(g, w) for g, w in zip(got, _law_arrays(want_law)))


def test_complex_pole_pair_still_certifies(tmp_path, capsys):
    payload, _ = CONFIG_HOLES["custom_complex_pole_pair"]
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(payload))
    assert main(["check", "--config", str(config_path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "satisfied"


def test_overflowing_symmetrization_check_exits_one(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"model": _huge_heat_capacity()}))
    assert main(["check", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "instantaneous block is not finite" in err
    assert len(err.splitlines()) == 1


def package_env():
    """Environment for a child interpreter that imports this checkout's package."""
    src = str(Path(thermoevo.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_cli_import_leaves_integrate_and_interpolate_unloaded():
    code = ("import sys, thermoevo.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_verify_run_leaves_interpolate_unloaded(tmp_path):
    # the oracle builds its forcing spline in-module, so a whole verify run
    # (oracle comparison included) never loads scipy.interpolate
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "model": {"family": "dpl_i", "coefficients": {
            "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0, "kappa": 1.0,
            "n1": 0.5, "n2": 0.25}},
        "grid": {"L": 1.0, "n_cells": 8},
        "time": {"t_max": 0.0625, "dt": 2**-8, "rho": 1.0, "scheme": "trapezoidal"},
        "forcing": {"kind": "delayed_step", "delay": 2**-5, "block": "f",
                    "spatial_profile": "bump"},
    }))
    out = tmp_path / "out"
    code = ("import sys, thermoevo.cli; "
            f"code = thermoevo.cli.main(['verify', '--config', {str(config_path)!r}, "
            f"'--out', {str(out)!r}]); "
            "print(code, 'scipy.interpolate' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=package_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split()[-2:] == ["0", "False"]
    assert json.loads((out / "verify.json").read_text())["comparison"]["status"] == "ok"


def modules_loaded(code: str, package: str) -> list:
    """The modules of ``package`` (it or its submodules) in ``sys.modules``
    after running ``code`` in a fresh interpreter."""
    code += ("; import json, sys; print(); print(json.dumps(sorted("
             f"m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r}))))")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def every_mode(tmp_path) -> list:
    """The argv of a run of each CLI mode; the law is uncoupled, so verify
    runs the oracle and simulate the entropy."""
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(sim_payload(
        model={"family": "dpl_i", "coefficients": {
            "rho0": 1.0, "nu": 1.0, "C": 1.0, "Gamma": 0.0, "kappa": 1.0,
            "n1": 0.5, "n2": 0.25}},
        grid={"L": 1.0, "n_cells": 8},
        time={"t_max": 0.0625, "dt": 2**-8, "rho": 1.0, "scheme": "trapezoidal"},
        forcing={"kind": "delayed_step", "delay": 2**-5, "block": "f",
                 "spatial_profile": "bump"})))
    return [[mode, "--config", str(config_path), "--out", str(tmp_path / mode)]
            for mode in ("simulate", "verify", "check")] + [["patterns", "--all"]]


def assert_runs_leave_unloaded(tmp_path, package: str) -> None:
    for argv in every_mode(tmp_path):
        code = f"import thermoevo.cli; assert thermoevo.cli.main({argv!r}) == 0"
        assert modules_loaded(code, package) == [], argv[0]
    assert (tmp_path / "simulate" / "eta.csv").exists()
    assert json.loads((tmp_path / "verify" / "verify.json").read_text())[
        "comparison"]["status"] == "ok"


@pytest.mark.skipif(_lapack._openblas64() is None,
                    reason="numpy's LAPACK is not scipy-openblas: runs bind scipy's wrappers")
def test_runs_leave_scipy_unloaded(tmp_path):
    # where numpy links scipy-openblas, a run of every mode needs numpy alone
    assert modules_loaded("import thermoevo", "scipy") == []
    assert_runs_leave_unloaded(tmp_path, "scipy")


def test_runs_leave_numpy_ma_unloaded(tmp_path):
    # numpy 2.4's np.unique imports numpy.ma (11-17 ms) on its first call
    assert_runs_leave_unloaded(tmp_path, "numpy.ma")


def test_runs_leave_dataclasses_unloaded(tmp_path):
    # the records are plain classes: building 17 dataclasses took ~20 ms of import
    assert modules_loaded("import thermoevo", "dataclasses") == []
    assert_runs_leave_unloaded(tmp_path, "dataclasses")


def test_splu_name_loads_scipy_sparse_on_lookup():
    baseline = modules_loaded("import numpy, scipy.linalg", "scipy")
    code = ("import sys, thermoevo.evolution as evolution; "
            "before = 'scipy.sparse.linalg' in sys.modules; "
            "found = evolution.splu; "
            "after = 'scipy.sparse.linalg' in sys.modules; "
            "from scipy.sparse.linalg import splu; "
            "assert found is splu; "
            "print(before, after)")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == [str("scipy.sparse.linalg" in baseline), "True"]
    with pytest.raises(AttributeError, match="no attribute 'spl'"):
        evolution.spl  # noqa: B018


#: the thermoevo command: as ``python -m`` runs it, and as the console script
#: of pyproject.toml calls it
LAUNCHERS = {
    "python_m": ["-m", "thermoevo.cli"],
    "entry": ["-c", "import thermoevo.cli; thermoevo.cli.entry()"],
}

#: check-mode models by the exit status they end in: satisfied, an input
#: error (JSON true in a per-cell list), a violated law
EXIT_MODELS = {
    0: ls_model(),
    1: {"family": "lord_shulman", "coefficients": dict(ls_model()["coefficients"],
                                                       kappa=[1.0, True])},
    2: {"family": "dpl_i", "coefficients": {"rho0": 1, "nu": 1, "C": 1, "Gamma": 0.5,
                                            "kappa": 1, "n1": 0.5, "n2": -0.25}},
}

#: loaded at the child's start-up: an atexit handler that records the
#: collector's freeze count where THERMOEVO_FREEZE_COUNT names
SITECUSTOMIZE = """\
import atexit, gc, os

def record():
    with open(os.environ["THERMOEVO_FREEZE_COUNT"], "w") as fh:
        fh.write(str(gc.get_freeze_count()))

atexit.register(record)
"""


@pytest.mark.parametrize("status", sorted(EXIT_MODELS))
@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
def test_command_ends_as_main_returns_without_exit_collections(launcher, status, tmp_path,
                                                               capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"model": EXIT_MODELS[status]}))
    argv = ["check", "--config", str(config_path)]
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = package_env()
    env["PYTHONPATH"] = os.pathsep.join([str(site), env["PYTHONPATH"]])
    env["THERMOEVO_FREEZE_COUNT"] = str(tmp_path / "freeze_count")
    child = subprocess.run([sys.executable, *LAUNCHERS[launcher], *argv], env=env,
                           capture_output=True, text=True)
    # the collector is frozen once main has returned, and atexit handlers still run
    assert int((tmp_path / "freeze_count").read_text()) > 0
    # in process, main returns the same status and output and freezes nothing
    assert main(argv) == child.returncode == status
    assert gc.get_freeze_count() == 0
    captured = capsys.readouterr()
    assert (child.stdout, child.stderr) == (captured.out, captured.err)
    if status == 1:
        assert child.stderr.startswith("error: coefficient 'kappa' must be")
        assert len(child.stderr.splitlines()) == 1
    else:
        assert json.loads(child.stdout)["verdict"] == ("satisfied", "violated")[status // 2]
        assert child.stderr == ""
