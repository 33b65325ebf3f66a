import xml.etree.ElementTree as ET

import numpy as np
import pytest

from savwave.cli import ConfigError, RunConfig, load_config, main, svg_plot


def write(path, text):
    path.write_text(text)
    return str(path)


BASE = """
problem.f = linear
problem.g = sine
space.modes = 16
time.T = 0.25
time.tau = 2^-5
converge.tau_exps = 4 5 6
converge.ref_exp = 8
converge.schemes = exponential
mc.realizations = 8
mc.chunk = 4
mc.seed = 99
"""


class TestConfig:
    def test_unknown_key_is_named(self, tmp_path):
        path = write(tmp_path / "c.txt", "problem.flux = 3\n")
        with pytest.raises(ConfigError, match="problem.flux"):
            load_config(path)

    def test_bad_value_is_named(self, tmp_path):
        path = write(tmp_path / "c.txt", "space.modes = sixty\n")
        with pytest.raises(ConfigError, match="space.modes"):
            load_config(path)

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.txt")

    def test_dyadic_shorthand(self, tmp_path):
        path = write(tmp_path / "c.txt", "time.tau = 2^-9\n")
        assert load_config(path).tau == 2.0**-9

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write(tmp_path / "c.txt", "# header\n\nproblem.f = cubic  # inline\n")
        assert load_config(path).f == "cubic"

    def test_step_count_must_divide_horizon(self):
        with pytest.raises(ConfigError, match="time.tau"):
            RunConfig(T=1.0, tau=0.3).steps()

    def test_overrides_apply(self, tmp_path):
        path = write(tmp_path / "c.txt", "mc.seed = 1\n")
        assert load_config(path, {"seed": 42}).seed == 42

    def test_cli_exit_code_on_config_error(self, tmp_path, capsys):
        path = write(tmp_path / "c.txt", "banana = 1\n")
        assert main(["simulate", "--config", path]) == 2
        assert "banana" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, backend", [
        ("scheme.variant", "verlet", "spectral"),
        ("scheme.variant", "verlet", "fem"),
        ("scheme.predictor", "extrapolate", "spectral"),
        ("scheme.predictor", "extrapolate", "fem"),
        ("converge.schemes", "exponential verlet", "spectral"),
        ("converge.norm", "h1", "spectral"),
        ("converge.reference", "rk4", "spectral"),
    ])
    def test_unknown_scheme_names_are_config_errors(self, tmp_path, capsys, key, value, backend):
        path = write(tmp_path / "c.txt", f"space.backend = {backend}\n{key} = {value}\n"
                                         f"output.dir = {tmp_path / 'out'}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        for command in ("simulate", "converge", "energy"):
            assert main([command, "--config", path]) == 2
            assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_row_count_includes_initial_state(self, tmp_path):
        cfg = write(tmp_path / "c.txt",
                    "time.T = 0.0625\ntime.tau = 2^-5\nspace.modes = 8\n"
                    f"output.dir = {tmp_path / 'out'}\n")
        assert main(["simulate", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "simulate.csv").read_text().splitlines()
        rows = [l for l in lines if l and not l.startswith("#")]
        assert rows[0] == "step,time,V,V1,q,aux_gap,energy_residual"
        assert len(rows) == 1 + 3  # header + steps 0..2

    def test_conservative_run_has_constant_V(self, tmp_path):
        cfg = write(tmp_path / "c.txt",
                    "problem.g = zero\nproblem.f = sine\nspace.modes = 16\n"
                    "time.T = 0.25\ntime.tau = 2^-6\n"
                    f"output.dir = {tmp_path / 'out'}\n")
        assert main(["simulate", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "simulate.csv").read_text().splitlines()
        v = np.array([float(l.split(",")[2]) for l in lines[1:] if not l.startswith("#")])
        assert np.max(np.abs(v - v[0])) / v[0] <= 1e-10

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "c.txt",
                    "time.T = 0.125\ntime.tau = 2^-5\nspace.modes = 8\nmc.seed = 7\n")
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "simulate.csv").read_bytes() == \
               (tmp_path / "b" / "simulate.csv").read_bytes()

    def test_fem_backend_runs(self, tmp_path):
        cfg = write(tmp_path / "c.txt",
                    "space.backend = fem\nspace.elements = 16\n"
                    "time.T = 0.125\ntime.tau = 2^-5\n"
                    f"output.dir = {tmp_path / 'out'}\n")
        assert main(["simulate", "--config", cfg]) == 0

    def test_model_violation_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.txt",
                    "problem.f = zero\nproblem.delta0 = 1e-12\n"
                    "time.T = 0.125\ntime.tau = 2^-5\nspace.modes = 8\n"
                    f"output.dir = {tmp_path / 'out'}\n")
        assert main(["simulate", "--config", cfg]) == 3
        assert "numerical abort" in capsys.readouterr().err


class TestConverge:
    def test_single_level_equal_to_reference_is_zero(self, tmp_path):
        cfg = write(tmp_path / "c.txt", BASE.replace("converge.tau_exps = 4 5 6",
                                                     "converge.tau_exps = 8"))
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "converge.csv").read_text().splitlines()
        row = [l for l in lines if l.startswith("exponential")][0]
        assert float(row.split(",")[2]) == 0.0

    def test_footer_carries_slope_and_seed(self, tmp_path):
        cfg = write(tmp_path / "c.txt", BASE)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "converge.csv").read_text()
        assert "# scheme=exponential slope=" in text
        assert "seed=99" in text

    def test_worker_count_preserves_bytes(self, tmp_path):
        cfg = write(tmp_path / "c.txt", BASE)
        main(["converge", "--config", cfg, "--out", str(tmp_path / "w1"), "--workers", "1"])
        main(["converge", "--config", cfg, "--out", str(tmp_path / "w8"), "--workers", "8"])
        assert (tmp_path / "w1" / "converge.csv").read_bytes() == \
               (tmp_path / "w8" / "converge.csv").read_bytes()

    def test_two_seeds_agree_within_three_sigma(self, tmp_path):
        from savwave.harness import strong_convergence
        from savwave.cli import _converge_study

        cfg_a = load_config(write(tmp_path / "a.txt", BASE), {"seed": 99})
        cfg_b = load_config(write(tmp_path / "b.txt", BASE), {"seed": 1234})
        slopes = []
        for cfg in (cfg_a, cfg_b):
            res = strong_convergence(_converge_study(cfg, False)).per_scheme[0]
            slopes.append(res.slope)
        assert abs(slopes[0] - slopes[1]) < 0.6  # generous desk-scale 3-sigma proxy


class TestEnergy:
    def test_columns_and_additive_band(self, tmp_path):
        cfg = write(tmp_path / "c.txt",
                    "problem.f = linear\nproblem.g = constant\nspace.modes = 16\n"
                    "time.T = 0.25\ntime.tau = 2^-5\nmc.realizations = 200\n"
                    "mc.chunk = 100\nmc.seed = 4\n")
        assert main(["energy", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
        assert lines[0] == "step,time,mean_V,stderr_V,predicted_V"
        data = np.array([[float(c) for c in l.split(",")]
                         for l in lines[1:] if not l.startswith("#")])
        dev = np.abs(data[1:, 2] - data[1:, 4])
        assert np.all(dev <= 3.0 * data[1:, 3])

    def test_conservative_rows_match_initial_value(self, tmp_path):
        cfg = write(tmp_path / "c.txt",
                    "problem.g = zero\nspace.modes = 8\ntime.T = 0.125\n"
                    "time.tau = 2^-5\nmc.realizations = 4\nmc.chunk = 4\n")
        assert main(["energy", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
        data = np.array([[float(c) for c in l.split(",")]
                         for l in lines[1:] if not l.startswith("#")])
        assert np.max(np.abs(data[:, 2] - data[0, 2])) <= 1e-10
        assert np.max(np.abs(data[:, 2] - data[:, 4])) <= 1e-12


class TestCheck:
    def test_filter_runs_only_matching_checks(self, capsys):
        assert main(["check", "--filter", "spectral"]) == 0
        out = capsys.readouterr().out
        assert "spectral." in out
        assert "fem." not in out

    def test_mutation_fails_and_names_energy_check(self, capsys):
        assert main(["check", "--filter", "schemes", "--mutate", "drop-balancing"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] schemes.pathwise_energy" in out

    def test_unmatched_filter_fails(self, capsys):
        assert main(["check", "--filter", "nosuchmodule"]) == 1


class TestSvg:
    def test_emission_is_pure_function_of_data(self):
        series = [("a", [1.0, 0.5, 0.25], [0.1, 0.05, 0.02])]
        one = svg_plot(series, title="t", loglog=True, annotations=["slope 1"])
        two = svg_plot(series, title="t", loglog=True, annotations=["slope 1"])
        assert one == two

    def test_output_is_well_formed_xml(self):
        doc = svg_plot([("x", [0.0, 1.0], [1.0, 2.0])], title="demo", xlabel="t", ylabel="V")
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("polyline") for child in root.iter())

    def test_cli_writes_svg_next_to_csv(self, tmp_path):
        cfg = write(tmp_path / "c.txt", BASE)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out"), "--svg"]) == 0
        svg = (tmp_path / "out" / "converge.svg").read_text()
        ET.fromstring(svg)
