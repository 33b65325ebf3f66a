import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from savwave import fem
from savwave.cli import ConfigError, RunConfig, _trajectory, load_config, main, svg_plot
from savwave.harness import _batched_initial
from savwave.model import Problem, spectral_discretization
from savwave.noise import RngStream, increments
from savwave.schemes import Integrator


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
        ("problem.f", "quintic", "spectral"),
        ("problem.f", "quintic", "fem"),
        ("problem.g", "cubic", "spectral"),
        ("problem.g", "cubic", "fem"),
        ("scheme.variant", "verlet", "spectral"),
        ("scheme.variant", "verlet", "fem"),
        ("scheme.predictor", "extrapolate", "spectral"),
        ("scheme.predictor", "extrapolate", "fem"),
        ("converge.schemes", "exponential verlet", "spectral"),
        ("converge.norm", "h1", "spectral"),
        ("converge.reference", "rk4", "spectral"),
        ("problem.delta0", "0", "spectral"),
        ("noise.modes", "-3", "fem"),
        ("noise.modes", "65", "spectral"),  # more than the default 64 space.modes
        ("time.tau", "0", "spectral"),
        ("converge.tau_exps", "8 14", "spectral"),
        ("time.T", "nan", "spectral"),
        ("time.T", "inf", "fem"),
        ("time.T", "0", "spectral"),  # would write zero errors and a nan slope
        ("time.T", "-1", "spectral"),  # was reported as a bad time.tau
        ("problem.sigma", "nan", "spectral"),
        ("noise.decay", "nan", "spectral"),
        ("noise.decay", "inf", "fem"),
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

    @pytest.mark.parametrize("command", ["converge", "energy"])
    @pytest.mark.parametrize("key, value", [
        ("space.backend", "fem"),
        ("noise.modes", "32"),
    ])
    def test_simulate_only_keys_are_config_errors_elsewhere(self, tmp_path, capsys, command,
                                                            key, value):
        # converge and energy run the sine backend with space.modes noise modes
        path = write(tmp_path / "c.txt", f"{key} = {value}\noutput.dir = {tmp_path / 'out'}\n")
        load_config(path)  # valid for simulate
        assert main([command, "--config", path]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "converge", "energy"])
    @pytest.mark.parametrize("config_seed, flag", [("-1", []), ("99", ["--seed", "-3"])])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command, config_seed, flag):
        path = write(tmp_path / "c.txt", BASE.replace("mc.seed = 99", f"mc.seed = {config_seed}"))
        assert main([command, "--config", path, "--out", str(tmp_path / "out"), *flag]) == 2
        assert "mc.seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_ladder_is_a_config_error(self, tmp_path, capsys):
        path = write(tmp_path / "c.txt", BASE.replace("converge.tau_exps = 4 5 6",
                                                      "converge.tau_exps ="))
        assert main(["converge", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "converge.tau_exps" in capsys.readouterr().err
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

    def test_blow_up_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # sigma = 1e7 puts V near 1.7e12 after one step, above the energy guard
        cfg = write(tmp_path / "c.txt",
                    "problem.g = constant\nproblem.sigma = 1e7\nspace.modes = 8\n"
                    "time.T = 0.125\ntime.tau = 2^-5\n"
                    f"output.dir = {tmp_path / 'out'}\n")
        assert main(["simulate", "--config", cfg]) == 3
        assert "numerical abort" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTrajectory:
    """The one path of `simulate`, stepped as a batch of one."""

    def test_zero_steps_give_the_initial_row_only(self):
        _, columns = _trajectory(RunConfig(modes=16, T=0.0, tau=0.1))
        assert all(values.shape == (1,) for values in columns.values())
        assert columns["step"][0] == 0 and columns["aux_gap"][0] == 0.0

    def test_conservative_single_mode_energy_constant(self):
        config = RunConfig(f="linear", g="zero", modes=1, variant="midpoint",
                           T=10_000 * 2.0**-6, tau=2.0**-6, seed=2)
        v = _trajectory(config)[1]["V"]
        assert v.size == 10_001
        assert np.max(np.abs(v - v[0])) / v[0] <= 1e-10

    def test_deterministic_replay(self):
        config = RunConfig(f="sine", g="sine", modes=24, T=0.5, tau=2.0**-6, seed=9)
        _, a = _trajectory(config)
        _, b = _trajectory(config)
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            _trajectory(RunConfig(modes=8, variant="verlet", T=0.1, tau=0.1))

    def test_rows_carry_monotone_time_and_finite_diagnostics(self):
        config = RunConfig(f="cubic", g="sine", modes=16, variant="midpoint",
                           T=0.5, tau=2.0**-7, seed=8)
        _, columns = _trajectory(config)
        assert np.all(np.diff(columns["time"]) > 0)
        for name in ("V", "V1", "q", "aux_gap", "energy_residual", "trace_term"):
            assert np.all(np.isfinite(columns[name])), name

    def test_matched_discretization_gap_is_initialization_only(self):
        # V - V1 = q^2 - F(u) stays within O(tau) of its initial value delta0
        tau = 2.0**-7
        diffs = np.zeros(33)
        paths = 4
        for seed in range(40, 40 + paths):
            _, columns = _trajectory(RunConfig(modes=32, T=32 * tau, tau=tau, seed=seed))
            diffs += (columns["V"] - columns["V1"]) / paths
        assert abs(diffs[0] - 1.0) <= 1e-12
        assert np.max(np.abs(diffs - diffs[0])) <= 20 * tau

    def test_extrapolation_predictor_changes_the_path(self):
        config = RunConfig(f="cubic", g="sine", modes=16, T=0.5, tau=2.0**-5, seed=12)
        a = _trajectory(config)[1]["V"]
        b = _trajectory(replace(config, predictor="extrapolation"))[1]["V"]
        assert a[-1] != b[-1]

    def test_spectral_noise_is_zero_padded_to_the_modes(self):
        config = RunConfig(f="cubic", modes=16, noise_modes=8, T=2.0**-3, tau=2.0**-6, seed=3)
        problem, columns = _trajectory(config)
        ops = spectral_discretization(16)
        integ = Integrator("exponential", config.tau, problem, ops,
                           _batched_initial(problem, ops, 1))
        for n, dw in enumerate(increments(problem.noise, config.tau, 8, [RngStream(3, 0)]), 1):
            diag = integ.step(np.concatenate([dw, np.zeros((1, 8))], axis=1), diagnostics=True)
            assert columns["V"][n] == diag.V[0] and columns["q"][n] == diag.q[0]

    @pytest.mark.parametrize("scheme", ["exponential", "midpoint"])
    def test_fem_row_n_is_the_integrator_step_on_the_mapped_noise(self, scheme):
        # 16 sine noise modes on a 16-element mesh, which has 15 eigenmodes:
        # the increments are mapped, not padded
        config = RunConfig(backend="fem", elements=16, variant=scheme, predictor="extrapolation",
                           T=2.0**-3, tau=2.0**-6, seed=5)
        problem, columns = _trajectory(config)
        ops = fem.assemble(16)
        cmap = fem.noise_projection_matrix(ops, 16)
        u0, v0 = fem.initial_coefficients(ops, problem)
        integ = Integrator(scheme, config.tau, problem, ops,
                           _batched_initial(problem, ops, 1, (u0, v0)), "extrapolation")
        for n, dw in enumerate(increments(problem.noise, config.tau, 8, [RngStream(5, 0)]), 1):
            diag = integ.step(dw @ cmap.T, diagnostics=True)
            assert columns["V"][n] == diag.V[0] and columns["q"][n] == diag.q[0]
            assert abs(columns["energy_residual"][n]) <= 1e-9 * (1.0 + columns["V"][n])


class TestConverge:
    def test_single_level_equal_to_reference_is_zero(self, tmp_path):
        cfg = write(tmp_path / "c.txt", BASE.replace("converge.tau_exps = 4 5 6",
                                                     "converge.tau_exps = 8"))
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "converge.csv").read_text().splitlines()
        row = [l for l in lines if l.startswith("exponential")][0]
        assert float(row.split(",")[2]) == 0.0

    def test_horizon_off_the_ladder_is_a_config_error(self, tmp_path, capsys):
        # T = 3 * 2^-7 is one and a half steps of 2^-6: no error may be read off it
        cfg = write(tmp_path / "c.txt", BASE.replace("time.T = 0.25", "time.T = 0.0234375")
                    .replace("time.tau = 2^-5", "time.tau = 2^-7")
                    .replace("converge.tau_exps = 4 5 6", "converge.tau_exps = 6 8")
                    .replace("converge.ref_exp = 8", "converge.ref_exp = 9"))
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "time.T" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_footer_carries_slope_and_seed(self, tmp_path):
        cfg = write(tmp_path / "c.txt", BASE)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "converge.csv").read_text()
        assert "# scheme=exponential slope=" in text
        assert "seed=99" in text

    def test_one_rung_ladder_fits_no_slope(self, tmp_path):
        cfg = write(tmp_path / "c.txt", BASE.replace("converge.tau_exps = 4 5 6",
                                                     "converge.tau_exps = 6"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "converge.csv").read_text()
        assert "# scheme=exponential slope=nan intercept=nan seed=99" in text

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
        assert main(["check", "--filter", "schemes", "--mutate", "unbalanced-table"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] schemes.pathwise_energy" in out

    def test_radicand_below_the_floor_is_a_failed_check(self, monkeypatch, capsys):
        drift_values = Problem.drift_values

        def shifted(self, u, out=None):  # F~ - 2 takes F(u) + delta0 below zero
            f, F = drift_values(self, u, out)
            return f, F - 2.0

        monkeypatch.setattr(Problem, "drift_values", shifted)
        assert main(["check", "--filter", "model"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] model.radicand_floor" in out
        assert "ModelViolationError" in out

    def test_unmatched_filter_fails(self, capsys):
        assert main(["check", "--filter", "nosuchmodule"]) == 1

    def test_negative_seed_is_a_config_error(self, capsys):
        assert main(["check", "--filter", "noise", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err


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
