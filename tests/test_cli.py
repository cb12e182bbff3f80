"""The `pnpf` command line, driven through cli.main in a temporary
directory."""

import json

import numpy as np
import pytest

from pnpf import cli, snapshot, thermo_audit
from pnpf.dynamics import stability_bound
from pnpf.fields import PhysParams
from pnpf.grid import GridSpec
from pnpf.thermo_audit import totals

from .oracles import constitutive_fluxes, entropy_production_density


def leaf_keys(doc, prefix=""):
    for key, val in doc.items():
        if isinstance(val, dict):
            yield from leaf_keys(val, f"{prefix}{key}.")
        else:
            yield prefix + key


def artifacts(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestConfig:
    def test_set_accepts_exactly_the_schema_keys(self):
        schema = set(leaf_keys(cli.CONFIG_SCHEMA))
        for key in sorted(schema):
            cli.load_config(None, [f"{key}=1"])
        # --set accepts the DEFAULTS leaves, so these must be the schema's
        assert set(leaf_keys(cli.DEFAULTS)) == schema
        for key in ("params.eps", "initial_condition.offset", "grid.width"):
            with pytest.raises(cli.ConfigError, match="unknown config key"):
                cli.load_config(None, [f"{key}=1"])

    @pytest.mark.parametrize("command", ["run", "varcheck"])
    def test_set_section_merges_like_a_file(self, tmp_path, command):
        # a section given by --set merges key by key, as in a file: grid.n
        # set before it stays 8
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": {"dim": 2}}))
        got = []
        for k, form in enumerate((["--config", str(path)], ["--set", 'grid={"dim": 2}'])):
            out = tmp_path / str(k)
            code = cli.main([
                command,
                "--set", "grid.n=8",
                "--set", "stepper.t_end=2e-3",
                "--set", "initial_condition.type=random_band",
                *form,
                "--outputs", str(out),
            ])
            got.append((code, artifacts(out)))
        assert got[0][0] == cli.EXIT_OK
        assert got[0][1]
        assert got[0] == got[1]

    @pytest.mark.parametrize("form", ["set", "file"])
    def test_unknown_key_in_a_section_value(self, tmp_path, capsys, form):
        section = {"seed": 0, "extra": 3}
        path = tmp_path / "varcheck.json"
        path.write_text(json.dumps({"varcheck": section}))
        args = (["--set", f"varcheck={json.dumps(section)}"] if form == "set"
                else ["--config", str(path)])
        out = tmp_path / "out"
        code = cli.main(["varcheck", "--set", "grid.n=8", *args, "--outputs", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "unknown config key 'varcheck.extra'" in capsys.readouterr().err
        assert not (out / "varcheck-report.json").exists()

    def test_value_nested_past_the_json_parser_is_a_config_error(self, tmp_path, capsys):
        # the parser's RecursionError: --set keeps the raw string, whose
        # type is wrong, and a file is unreadable
        deep = "[" * 100000 + "]" * 100000
        path = tmp_path / "deep.json"
        path.write_text(f'{{"audit_every": {deep}}}')
        for form in (["--set", f"audit_every={deep}"], ["--config", str(path)]):
            code = cli.main(["run", *form, "--outputs", str(tmp_path)])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "Traceback" not in err
            # the echoed value is capped, not the whole 200 kB of brackets
            assert len(err) < 300
            if form[0] == "--set":
                assert "'audit_every'" in err

    def test_outputs_that_cannot_be_made_is_a_config_error(self, tmp_path, capsys):
        # a file in the way, and a name longer than a file system takes
        (tmp_path / "file").write_text("")
        for out in (tmp_path / "file", tmp_path / ("x" * 300)):
            code = cli.main(["varcheck", "--set", "grid.n=8", "--set", f"outputs={out}"])
            assert code == cli.EXIT_CONFIG
            assert "outputs directory" in capsys.readouterr().err

    def test_floor_below_the_state_floor_is_a_config_error(self, tmp_path, capsys):
        # a State rejects anything below fields.POSITIVITY_FLOOR, so a lower
        # stepper floor is refused up front (exit 2) instead of surfacing as
        # a PositivityError mid-run
        code = cli.main([
            "run",
            "--set", "grid.dim=1",
            "--set", "grid.n=8",
            "--set", "stepper.positivity_floor=1e-12",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        assert "positivity_floor" in capsys.readouterr().err
        assert not (tmp_path / "audit.csv").exists()

    @pytest.mark.parametrize("band", [0, -3])
    def test_band_below_one_is_a_config_error(self, tmp_path, capsys, band):
        # a band below 1 keeps no mode: the run would be the exact equilibrium
        code = cli.main([
            "run",
            "--set", "grid.dim=1",
            "--set", "grid.n=8",
            "--set", "initial_condition.type=random_band",
            "--set", f"initial_condition.band={band}",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        assert "'initial_condition.band'" in capsys.readouterr().err
        assert not (tmp_path / "audit.csv").exists()

    def test_kmax_below_one_is_a_config_error(self, tmp_path, capsys):
        # a zero probe pairs to 0 against every force: a vacuous pass
        code = cli.main([
            "varcheck",
            "--set", "grid.n=8",
            "--set", "varcheck.kmax=0",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        assert "'varcheck.kmax'" in capsys.readouterr().err
        assert not (tmp_path / "varcheck-report.json").exists()

    @pytest.mark.parametrize("value", ["-1", "0", "-0.0"])
    @pytest.mark.parametrize("key", ["fd_rel_tol", "balance_tol"])
    def test_tolerance_not_above_zero_is_a_config_error(self, tmp_path, capsys, key, value):
        # no report meets a tolerance below zero, and a zero one only at
        # exact arithmetic: the verdict would be fixed before the report ran
        code = cli.main([
            "varcheck",
            "--set", "grid.n=8",
            "--set", f"varcheck.{key}={value}",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"'varcheck.{key}'" in err and "float > 0" in err
        assert not (tmp_path / "varcheck-report.json").exists()

    def test_set_without_a_value_is_a_config_error(self, tmp_path, capsys):
        code = cli.main(["run", "--set", "grid.n", "--outputs", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "--set expects dotted.key=value, got 'grid.n'" in capsys.readouterr().err

    def test_config_file_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code = cli.main(["run", "--config", str(path), "--outputs", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "config file must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("axis", "2", "single_mode axis 2 out of range for dim 2"),
        ("field", "w", "unknown single_mode field 'w'"),
    ])
    def test_single_mode_outside_its_choices_is_a_config_error(self, tmp_path, capsys, key,
                                                                value, message):
        code = cli.main([
            "run", "--set", "grid.dim=2", "--set", "grid.n=8",
            "--set", "initial_condition.type=single_mode",
            "--set", f"initial_condition.{key}={value}",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "audit.csv").exists()


class TestEndTime:
    """A run or a decay ends at stepper.t_end: t_end/dt must be a whole
    number of steps, at least 1, to within 1e-9 relative, or the command
    is a config error naming the key.  varcheck takes no steps and ignores
    the stepper."""

    @pytest.mark.parametrize("command", ["run", "decay"])
    @pytest.mark.parametrize("dt, t_end", [(1.0, 0.4), (1e-3, 1e-300), (1e-3, 4.5e-3),
                                           (1e-300, 1e300)])
    def test_a_partial_step_is_a_config_error(self, tmp_path, capsys, command, dt, t_end):
        code = cli.main([
            command, "--set", "grid.dim=1", "--set", "grid.n=8",
            "--set", "initial_condition.type=random_band",
            "--set", "decay.mode_profile=random_band",
            "--set", f"stepper.dt={dt!r}", "--set", f"stepper.t_end={t_end!r}",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'stepper.t_end'" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_a_rounded_quotient_ends_at_t_end(self, tmp_path):
        # 0.3/0.1 = 2.9999999999999996 is 3 steps to rounding
        code = cli.main([
            "run", "--set", "grid.dim=1", "--set", "grid.n=8",
            "--set", "stepper.dt=0.1", "--set", "stepper.t_end=0.3",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        meta = json.loads((tmp_path / "final.meta.json").read_text())
        assert meta["step"] == 3

    def test_varcheck_ignores_the_stepper(self, tmp_path):
        code = cli.main([
            "varcheck", "--set", "grid.n=8", "--set", "stepper.dt=1.0",
            "--set", "stepper.t_end=0.4", "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_OK


class TestConfigTypes:
    """A config value of the wrong JSON type exits 2 and names its key; no
    value of any type lets an exception escape main."""

    BASE = ["--set", "grid.dim=1", "--set", "grid.n=8", "--set", "stepper.t_end=2e-3",
            "--set", "initial_condition.type=random_band"]

    @pytest.mark.parametrize("value", ["null", "[1]", '{"a": 1}', '"x"', "Infinity", "NaN"])
    @pytest.mark.parametrize("key", sorted(leaf_keys(cli.CONFIG_SCHEMA)))
    def test_every_key_and_type(self, tmp_path, monkeypatch, capsys, key, value):
        # outputs is left to the config: "." is tmp_path
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PNPF_OUT", raising=False)
        section = key.partition(".")[0]
        command = section if section in ("decay", "varcheck") else "run"
        code = cli.main([command, *self.BASE, "--set", f"{key}={value}"])
        assert code in (0, 1, 2, 3)
        # null, [1] and {"a": 1} have the wrong type for every key but a null
        # outputs; "x" has the right one for the string keys; Infinity and
        # NaN are floats but not finite, so no key takes them
        if value != '"x"' and (key, value) != ("outputs", "null"):
            assert code == cli.EXIT_CONFIG
            assert repr(key) in capsys.readouterr().err

    def test_integer_past_float_range(self, tmp_path, capsys):
        # a JSON integer is a number for a float key, but one past the float
        # range is not finite: a config error, not an OverflowError
        code = cli.main(["run", *self.BASE, "--set", "stepper.t_end=1" + "0" * 400,
                         "--outputs", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "'stepper.t_end'" in capsys.readouterr().err

    @pytest.mark.parametrize("section", sorted(k for k, v in cli.DEFAULTS.items()
                                               if isinstance(v, dict)))
    def test_section_value(self, tmp_path, capsys, section):
        # a section value merges into the section key by key: {} changes
        # nothing, and {"leaf": null} changes only that leaf, whose wrong
        # type is named
        command = section if section in ("decay", "varcheck") else "run"
        got = []
        for k, extra in enumerate(([], ["--set", f"{section}={{}}"])):
            out = tmp_path / str(k)
            code = cli.main([command, *self.BASE, *extra, "--outputs", str(out)])
            got.append((code, artifacts(out)))
        assert got[0][0] == cli.EXIT_OK
        assert got[0][1]
        assert got[0] == got[1]
        for leaf in cli.DEFAULTS[section]:
            code = cli.main([command, *self.BASE, "--set", f'{section}={{"{leaf}": null}}',
                             "--outputs", str(tmp_path / "bad")])
            assert code == cli.EXIT_CONFIG, leaf
            assert repr(f"{section}.{leaf}") in capsys.readouterr().err

    @pytest.mark.parametrize("file_grid, sets, missing", [
        (None, ["grid=5", "grid.n=8"], "grid.dim"),
        (None, ["grid=5", 'grid={"dim": 2}'], "grid.n"),
        ("null", ["grid.n=8"], "grid.dim"),
    ])
    def test_section_replaced_then_merged_into(self, tmp_path, capsys, file_grid, sets,
                                               missing):
        # a section replaced by a non-object and then given a partial object
        # lacks its other keys: a config error naming one, not a KeyError
        args = ["run", "--outputs", str(tmp_path / "out")]
        if file_grid is not None:
            path = tmp_path / "c.json"
            path.write_text(f'{{"grid": {file_grid}}}')
            args += ["--config", str(path)]
        for s in sets:
            args += ["--set", s]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert repr(missing) in capsys.readouterr().err


class TestInitialState:
    @pytest.mark.parametrize("field", ["theta", "u", "v", "n", "p"])
    def test_single_mode_moves_its_field(self, field):
        # u = n + p - 2 and v = n - p; the wave is a sin(2 pi x_1 / L)
        grid = GridSpec(dim=2, n=8, length=2.0)
        config = cli.load_config(None, [
            "initial_condition.type=single_mode",
            f"initial_condition.field={field}",
            "initial_condition.axis=1",
        ])
        s = cli.build_initial_state(config, grid)
        n, p, th = s.n.values - 1.0, s.p.values - 1.0, s.theta.values - 1.0
        wave = 1e-2 * np.sin(np.pi * grid.axes_coordinates()[1])
        moved = {"theta": th, "u": n + p, "v": n - p, "n": n, "p": p}[field]
        still = {"theta": (n, p), "u": (th, n - p), "v": (th, n + p), "n": (p, th),
                 "p": (n, th)}[field]
        assert np.abs(moved - wave).max() <= 1e-15
        assert all(np.abs(f).max() <= 1e-15 for f in still)


def read_audit_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


class TestRun:
    @pytest.mark.parametrize("dt_factor, steps, exit_code", [
        (None, 17, cli.EXIT_OK),  # 17 steps, audits every 5: a short last interval
        (2.0, 60, cli.EXIT_RUNTIME),  # dt twice the RK4 bound: a positivity abort
    ])
    def test_checkpoint_matches_last_audit_row(self, tmp_path, dt_factor, steps, exit_code):
        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        dt = 1e-3 if dt_factor is None else dt_factor * stability_bound(
            grid, PhysParams(**cli.DEFAULTS["params"]), "RK4"
        )
        code = cli.main([
            "run",
            "--set", "grid.dim=2",
            "--set", "grid.n=16",
            "--set", "initial_condition.type=random_band",
            "--set", f"stepper.dt={dt!r}",
            "--set", f"stepper.t_end={dt * steps!r}",
            "--set", "audit_every=5",
            "--outputs", str(tmp_path),
        ])
        assert code == exit_code
        rows = read_audit_csv(tmp_path / "audit.csv")
        meta = json.loads((tmp_path / "final.meta.json").read_text())
        assert meta["t"] == rows[-1]["t"]
        assert meta["step"] == round(rows[-1]["t"] / dt)
        assert meta["step"] * dt == meta["t"]
        if exit_code == cli.EXIT_OK:
            assert meta["step"] == steps
        else:
            assert 0 < meta["step"] < steps
        # the checkpointed state is the one the last row audits
        state, _ = snapshot.read_checkpoint(tmp_path / "final")
        params = PhysParams(**meta["params"])
        mass_n, _, E, S, _ = totals(
            state, params,
            entropy_production_density(constitutive_fluxes(state, params), state, params),
        )
        assert (mass_n, E, S) == (rows[-1]["mass_n"], rows[-1]["E"], rows[-1]["S"])

    def test_floor_above_the_state_is_a_runtime_abort(self, tmp_path, capsys):
        # the initial state lies below a stage floor of 1.5: the first step
        # aborts before its first RHS, the message names the configured
        # floor as given, and the state's one audit row is written
        code = cli.main([
            "run",
            "--set", "grid.dim=2",
            "--set", "grid.n=16",
            "--set", "initial_condition.type=random_band",
            "--set", "stepper.positivity_floor=1.5",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "< 1.5" in err and "2e+00" not in err
        assert [row["t"] for row in read_audit_csv(tmp_path / "audit.csv")] == [0.0]

    def test_negative_entropy_production_is_a_runtime_abort(
        self, tmp_path, monkeypatch, capsys
    ):
        # from the third audit sample on the production reads negative; the
        # writer holds each row back one sample, so the failure surfaces
        # while writing the third row and the first two stay in audit.csv
        real_totals = thermo_audit.totals
        calls = []

        def totals(*args, **kwargs):
            calls.append(None)
            mass_n, mass_p, E, S, Delta = real_totals(*args, **kwargs)
            return mass_n, mass_p, E, S, (Delta if len(calls) < 3 else -1e-10)

        monkeypatch.setattr(thermo_audit, "totals", totals)
        dt = 1e-3
        code = cli.main([
            "run",
            "--set", "grid.dim=1",
            "--set", "grid.n=16",
            "--set", "initial_condition.type=random_band",
            "--set", f"stepper.dt={dt!r}",
            "--set", f"stepper.t_end={6 * dt!r}",
            "--set", "audit_every=1",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_RUNTIME
        assert "entropy production" in capsys.readouterr().err
        rows = read_audit_csv(tmp_path / "audit.csv")
        assert [row["t"] for row in rows] == [0.0, dt]
        assert all(row["Delta"] >= 0.0 for row in rows)


class TestDecay:
    def test_inconclusive_verdict_is_named(self, tmp_path, capsys):
        # the default single_mode profile starts u_tilde at 0: its rate is
        # not positive, so the rate ordering is inconclusive, not a pass
        code = cli.main([
            "decay",
            "--set", "grid.dim=2",
            "--set", "grid.n=8",
            "--set", "grid.length=1.0",
            "--set", "stepper.dt=5e-4",
            "--set", "stepper.t_end=0.05",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        assert "inconclusive verdicts: rate_ordering_verdict" in capsys.readouterr().out
        result = json.loads((tmp_path / "decay-summary.json").read_text())
        assert result["rate_ordering_verdict"] == "inconclusive"

    def test_neutrality_breach_is_a_runtime_abort(self, tmp_path, capsys):
        # undealiased rates get a nonzero mean once products reach the
        # Nyquist mode, and mean(v) leaves the neutrality tolerance after a
        # few steps: the step's closing check aborts the run (exit 3), and
        # decay.csv keeps the samples taken before it
        code = cli.main([
            "decay",
            "--set", "grid.dim=2",
            "--set", "grid.n=8",
            "--set", "decay.mode_profile=random_band",
            "--set", "decay.delta0=0.3",
            "--set", "stepper.dealias=false",
            "--set", "stepper.t_end=0.05",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "neutrality breached: mean(v)" in err and "config error" not in err
        lines = (tmp_path / "decay.csv").read_text().strip().split("\n")
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert len(times) >= 2 and times == [0.01 * i for i in range(len(times))]
        result = json.loads((tmp_path / "decay-summary.json").read_text())
        assert result["completed"] is False and "neutrality" in result["abort_reason"]

    def test_scaling_check(self, tmp_path):
        # a companion run at delta0/2: Lambda is quadratic in delta0, so the
        # terminal ratio is 4 up to the nonlinear terms (4.0000019 here)
        code = cli.main([
            "decay", "--set", "grid.dim=2", "--set", "grid.n=16",
            "--set", "decay.mode_profile=random_band", "--set", "stepper.t_end=0.05",
            "--set", "decay.scaling_check=true", "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_OK
        result = json.loads((tmp_path / "decay-summary.json").read_text())
        assert result["scaling_verdict"] == "pass"
        assert abs(result["terminal_scaling_ratio"] - 4.0000019156376485) <= 1e-9

    @pytest.mark.parametrize("delta0", [-1, 50])
    def test_inadmissible_amplitude_is_a_config_error(self, tmp_path, capsys, delta0):
        # a negative delta0 fails the experiment's check; delta0 = 50 takes
        # min n = min p to -1.53 (2 + u_tilde stays positive), which the
        # perturbation form's positivity check rejects
        code = cli.main([
            "decay", "--set", "grid.dim=2", "--set", "grid.n=16",
            "--set", f"decay.delta0={delta0}", "--set", "stepper.dt=1e-4",
            "--set", "stepper.t_end=0.002", "--set", "decay.sample_every=1",
            "--outputs", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        want = "delta0 must be nonnegative" if delta0 < 0 else "PositivityError: min(n)"
        assert want in err and "Traceback" not in err
        assert not (tmp_path / "decay.csv").exists()


class TestVarcheck:
    def test_unresolved_kmax_keeps_its_conservative_check(self, tmp_path):
        # kmax 4 at n = 8 is not pruned (kmax >= n//2 takes the full
        # transforms), and its probe is drawn on the 8-grid itself.  Its
        # conservative best_rel_err is 1.115e-07 with the probe's own seed
        # (cli.probe_seed); it read 5.763e-08 when the probe was the
        # state's own draw.  A rounding change of the fds moves it by about
        # that change over 1e-5 (taking one quadrature of the density
        # differences moved it by 6e-13).  Its balance fails: a kmax the
        # grid does not resolve fails the balance (a known open item), so
        # it exits 1
        code = cli.main([
            "varcheck", "--set", "grid.n=8", "--set", "varcheck.kmax=4",
            "--outputs", str(tmp_path),
        ])
        report = json.loads((tmp_path / "varcheck-report.json").read_text())
        assert code == 1 and report["pass"] is False
        assert report["force_balance_residual"] > report["thresholds"]["balance_tol"]
        assert abs(report["conservative"]["best_rel_err"] - 1.1148120957479905e-07) <= 1e-9

    def test_wider_pruned_band_passes(self, tmp_path):
        # kmax 5 at n = 32: a pruned probe band wider than the default's
        code = cli.main([
            "varcheck", "--set", "grid.n=32", "--set", "varcheck.kmax=5",
            "--outputs", str(tmp_path),
        ])
        report = json.loads((tmp_path / "varcheck-report.json").read_text())
        assert code == cli.EXIT_OK and report["pass"] is True


    def test_probe_is_not_the_states_direction(self, tmp_path, monkeypatch):
        # the state is Philox(varcheck.seed)'s draw; the probe has a seed of
        # its own, which the report records.  At the CLI defaults every
        # component of dJ_p correlates with each drawn field (u_tilde, v,
        # theta_tilde) by less than 0.5 (at n = 8 it read 1.000000 with the
        # state's own seed)
        seen = []
        orig = cli.varcheck.varcheck_report

        def record(state, params, seed, **kwargs):
            seen.append((state, seed, kwargs["probe_kmax"]))
            return orig(state, params, seed, **kwargs)

        monkeypatch.setattr(cli.varcheck, "varcheck_report", record)
        vc = cli.DEFAULTS["varcheck"]
        for n in (8, 16, 32):
            out = tmp_path / str(n)
            assert cli.main(["varcheck", "--set", f"grid.n={n}", "--outputs", str(out)]) == 0
            s, seed, kmax = seen[-1]
            report = json.loads((out / "varcheck-report.json").read_text())
            assert report["probe_seed"] == seed == cli.probe_seed(vc["seed"]) != vc["seed"]
            probe = cli.varcheck.random_probe(s.grid, seed=seed, kmax=kmax)
            drawn = (s.n.values + s.p.values - 2.0, s.n.values - s.p.values, s.theta.values - 1.0)
            for i in range(s.grid.dim):
                d = probe.component(0, i).ravel()
                for f in drawn:
                    assert abs(np.corrcoef(d, f.ravel())[0, 1]) < 0.5, (n, i)


class TestPlotdata:
    def test_pivot_gives_back_every_cell(self, tmp_path):
        # an audit.csv and a decay.csv in one directory: one (series, t,
        # value) row per non-t cell, carrying the cell's string unchanged
        src, out = tmp_path / "src", tmp_path / "out"
        base = ["--set", "grid.dim=1", "--set", "grid.n=8", "--set", "stepper.t_end=3e-3",
                "--outputs", str(src)]
        assert cli.main(["run", "--set", "initial_condition.type=random_band",
                         "--set", "audit_every=1", *base]) == cli.EXIT_OK
        assert cli.main(["decay", "--set", "decay.sample_every=1", *base]) == cli.EXIT_OK
        assert cli.main(["plotdata", "--outputs", str(out), str(src)]) == cli.EXIT_OK
        lines = (out / "plotdata.csv").read_text().strip().split("\n")
        assert lines[0] == "series,t,value"
        pivot = {}
        for line in lines[1:]:
            series, t, value = line.split(",")
            stem, name = series.split(".")
            pivot.setdefault(stem, {}).setdefault(t, {})[name] = value
        cells = 0
        for stem in ("audit", "decay"):
            rows = (src / f"{stem}.csv").read_text().strip().split("\n")
            header = rows[0].split(",")
            want = {}
            for row in rows[1:]:
                t, *rest = row.split(",")
                want[t] = dict(zip(header[1:], rest))
                cells += len(rest)
            assert pivot[stem] == want, stem
        assert len(lines) - 1 == cells

    def test_a_directory_without_csvs_is_a_config_error(self, tmp_path, capsys):
        code = cli.main(["plotdata", "--outputs", str(tmp_path / "out"), str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "no audit.csv or decay.csv in" in capsys.readouterr().err


class TestDefaults:
    @pytest.mark.parametrize("flags, want", [([], cli.DEFAULTS), (["--schema"], cli.CONFIG_SCHEMA)])
    def test_prints_the_table(self, capsys, flags, want):
        assert cli.main(["defaults", *flags]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out) == want


class TestDeterminism:
    """The same config run twice writes byte-identical artifacts."""

    @pytest.mark.parametrize("scheme", ["RK4", "IMEX1"])
    def test_run_twice(self, tmp_path, scheme):
        got = []
        for k in range(2):
            out = tmp_path / str(k)
            code = cli.main([
                "run",
                "--set", "grid.dim=2",
                "--set", "grid.n=16",
                "--set", "initial_condition.type=random_band",
                "--set", "initial_condition.seed=4",
                "--set", f"stepper.scheme={scheme}",
                "--set", "stepper.t_end=0.006",
                "--set", "audit_every=2",
                "--outputs", str(out),
            ])
            assert code == cli.EXIT_OK
            got.append(artifacts(out))
        assert {"audit.csv", "final.snap", "final.meta.json"} <= set(got[0])
        assert got[0] == got[1]

    def test_decay_twice(self, tmp_path):
        got = []
        for k in range(2):
            out = tmp_path / str(k)
            code = cli.main([
                "decay",
                "--set", "grid.dim=2",
                "--set", "grid.n=16",
                "--set", "decay.mode_profile=random_band",
                "--set", "decay.seed=4",
                "--set", "decay.sample_every=2",
                "--set", "stepper.dt=2e-4",
                "--set", "stepper.t_end=0.004",
                "--outputs", str(out),
            ])
            assert code == cli.EXIT_OK
            got.append(artifacts(out))
        assert set(got[0]) == {"decay.csv", "decay-summary.json"}
        assert got[0] == got[1]
