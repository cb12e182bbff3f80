"""
Command-line interface.

Subcommands: run, varcheck, decay, plotdata, defaults.  Configuration is
a JSON file (see DEFAULTS for the full key set and `pnpf defaults` to
print it); individual values can be overridden on the command line with
repeated --set dotted.key=json-value flags.  A file and a --set merge
the same way: an object given for a section (`--set 'grid={"dim": 2}'`)
merges into it key by key, so the section's other keys keep their
values, and an unknown key anywhere is a configuration error.  The
default output root is $PNPF_OUT, else the current directory.

Exit codes: 0 success, 1 a failed varcheck verdict, 2 configuration/
validation error (a config value of the wrong type included), 3 runtime
abort (positivity breach, non-finite values, an audited entropy
production below the roundoff floor).  Runs are deterministic: the same
config and seed produce bit-identical CSV artifacts on one platform
(counter-based Philox streams, fixed 17-significant-digit formatting).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import decay as decay_mod
from . import snapshot, varcheck
from .dynamics import StepAbort, StepperConfig
from .fields import POSITIVITY_FLOOR, PhysParams, PositivityError, State
from .grid import GridSpec, ScalarField
from .poisson import NonNeutralSource
from .thermo_audit import EntropyProductionError, audit_run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# every config key with its (default, published schema text); DEFAULTS
# and CONFIG_SCHEMA are the two halves of this one table
_CONFIG = {
    "grid": {
        "dim": (3, "int in {1,2,3}"),
        "n": (32, "power-of-two int >= 8"),
        "length": (6.283185307179586, "float > 0"),
    },
    "params": {k: (v, "float > 0") for k, v in
               (("c_p", 1.5), ("c_n", 1.5), ("D_p", 1.0), ("D_n", 1.0), ("k", 1.0))},
    "stepper": {
        "scheme": ("RK4", "RK4 | IMEX1"),
        "dt": (1e-3, "float > 0"),
        "t_end": (0.1, "float > 0"),
        "dealias": (True, "bool"),
        "positivity_floor": (POSITIVITY_FLOOR, "float"),
    },
    "initial_condition": {
        "type": ("equilibrium", "equilibrium | single_mode | random_band"),
        "field": ("theta", "theta | u | v | n | p (single_mode)"),
        "axis": (0, "int (single_mode)"),
        "amplitude": (1e-2, "float (single_mode, random_band)"),
        "seed": (0, "int (random_band)"),
        "band": (2, "int >= 1 (random_band)"),
    },
    "outputs": (None, "directory path or null"),  # null: $PNPF_OUT or "."
    "audit_every": (10, "int >= 1"),
    "varcheck": {
        "seed": (0, "int"),
        "amplitude": (1e-3, "float"),
        "kmax": (1, "int >= 1"),
        "fd_rel_tol": (1e-6, "float > 0"),
        "balance_tol": (1e-8, "float > 0"),
    },
    "decay": {
        "delta0": (1e-2, "float >= 0"),
        "seed": (0, "int"),
        "mode_profile": ("single_mode", "single_mode | random_band"),
        "sample_every": (10, "int >= 1"),
        "scaling_check": (False, "bool"),
    },
}


def _column(table: dict, i: int) -> dict:
    return {k: _column(v, i) if isinstance(v, dict) else v[i] for k, v in table.items()}


DEFAULTS = _column(_CONFIG, 0)
CONFIG_SCHEMA = _column(_CONFIG, 1)  # published shape of the config document

# single_mode: the weights of the wave in (n, p, theta) for each field
_SINGLE_MODE = {
    "theta": (0.0, 0.0, 1.0),
    "u": (0.5, 0.5, 0.0),
    "v": (0.5, -0.5, 0.0),
    "n": (1.0, 0.0, 0.0),
    "p": (0.0, 1.0, 0.0),
}


class ConfigError(ValueError):
    pass


def _deep_update(base: dict, extra: dict, prefix: str = "") -> None:
    """Merge extra into base key by key: an object given for a section
    merges into that section, any other value replaces the old one.  An
    unknown key is a ConfigError naming its dotted path."""
    for key, val in extra.items():
        if key not in base:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            _deep_update(base[key], val, f"{prefix}{key}.")
        else:
            base[key] = val


def _apply_set(config: dict, assignment: str) -> None:
    """--set dotted.key=value: the value (JSON, else the raw string) nested
    under its dotted key and merged as a config file would be."""
    if "=" not in assignment:
        raise ConfigError(f"--set expects dotted.key=value, got {assignment!r}")
    key, _, raw = assignment.partition("=")
    try:
        value = json.loads(raw)
    except (json.JSONDecodeError, RecursionError):
        value = raw
    for part in reversed(key.split(".")):
        value = {part: value}
    _deep_update(config, value)


def load_config(path: str | None, sets: list[str]) -> dict:
    config = _column(_CONFIG, 0)
    if path is not None:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        _deep_update(config, file_cfg)
    for assignment in sets:
        _apply_set(config, assignment)
    return config


def _check_types(config: dict, defaults: dict = DEFAULTS, schema: dict = CONFIG_SCHEMA,
                 prefix: str = "") -> None:
    """ConfigError naming the key unless every value has the JSON type of
    its default: an object for a section, a finite number (an integer
    too) for a float, a string or null for outputs; and unless every key
    whose schema reads "int >= 1" holds at least 1 and every key whose
    schema reads "float > 0" holds a number above 0.  A key missing from a
    section (one that an earlier value replaced wholesale) is a
    ConfigError too.  JSON's Infinity and NaN, and an integer past the
    float range, are not finite numbers."""
    for key, default in defaults.items():
        name = prefix + key
        if key not in config:
            raise ConfigError(f"config key {name!r} is missing")
        val = config[key]
        allowed = {float: (int, float), type(None): (str, type(None))}.get(
            type(default), (type(default),)
        )
        if type(val) not in allowed or (
            type(default) is int and schema[key].startswith("int >= 1") and val < 1
        ) or (type(default) is float and not abs(val) <= sys.float_info.max) or (
            type(default) is float and schema[key].startswith("float > 0") and not val > 0
        ):
            expected = "an object" if isinstance(default, dict) else schema[key]
            shown = json.dumps(val)
            if len(shown) > 80:  # a value as long as the input would flood stderr
                shown = shown[:80] + "…"
            raise ConfigError(f"config key {name!r} is {shown}, expected {expected}")
        if isinstance(default, dict):
            _check_types(val, default, schema[key], name + ".")


def _build_objects(config: dict):
    try:
        grid = GridSpec(**config["grid"])
        params = PhysParams(**config["params"])
        cfg = StepperConfig(**config["stepper"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return grid, params, cfg


def _outputs_dir(config: dict) -> Path:
    path = Path(config.get("outputs") or os.environ.get("PNPF_OUT") or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make outputs directory {path}: {exc}") from exc
    if not os.access(path, os.W_OK):
        raise ConfigError(f"outputs directory {path} is not writable")
    return path


def random_band_state(grid: GridSpec, seed: int, band: int, amplitude: float) -> State:
    """State whose u_tilde, v and theta_tilde are three Philox(seed) draws
    of decay.band_field on modes 1..band, each scaled to max-abs
    amplitude."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    ut, v, tt = (decay_mod.band_field(grid, gen, band) * amplitude for _ in range(3))
    return State.from_primitives(
        ScalarField(grid, 1.0 + 0.5 * (ut + v)),
        ScalarField(grid, 1.0 + 0.5 * (ut - v)),
        ScalarField(grid, 1.0 + tt),
    )


def build_initial_state(config: dict, grid: GridSpec) -> State:
    """Initial State from the configured profile.  Neutrality and
    positivity are enforced by State construction; a profile that breaks
    them (an amplitude of 1 or more) is reported as a config error."""
    ic = config["initial_condition"]
    kind = ic["type"]
    if kind == "equilibrium":
        return State.equilibrium(grid)
    if kind == "random_band":
        return random_band_state(grid, int(ic["seed"]), int(ic["band"]), float(ic["amplitude"]))
    if kind != "single_mode":
        raise ConfigError(f"unknown initial_condition type {kind!r}")
    field, axis = ic["field"], int(ic["axis"])
    if not 0 <= axis < grid.dim:
        raise ConfigError(f"single_mode axis {axis} out of range for dim {grid.dim}")
    if field not in _SINGLE_MODE:
        raise ConfigError(f"unknown single_mode field {field!r}")
    x = grid.axes_coordinates()[axis]
    wave = float(ic["amplitude"]) * np.sin(2.0 * np.pi * x / grid.length)
    n, p, theta = (ScalarField(grid, 1.0 + w * wave) for w in _SINGLE_MODE[field])
    return State.from_primitives(n, p, theta)


def cmd_run(config: dict) -> int:
    grid, params, cfg = _build_objects(config)
    outdir = _outputs_dir(config)
    audit_every = int(config["audit_every"])
    state = build_initial_state(config, grid)
    final, records, abort_reason = audit_run(
        state, cfg, params, outdir / "audit.csv", audit_every=audit_every
    )
    # the last audit row is the final state's
    t = records[-1].t
    snapshot.write_checkpoint(
        outdir / "final", final,
        t=t, step=round(t / cfg.dt), cfg=cfg, params=params,
    )
    if abort_reason is not None:
        print(f"run aborted: {abort_reason}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"run complete: {len(records)} audit samples -> {outdir / 'audit.csv'}")
    return EXIT_OK


def probe_seed(seed: int) -> int:
    """The Philox key of the varcheck probe, derived from varcheck.seed,
    which keys the state's own draw (random_band_state): one 64-bit word of
    SeedSequence([seed, b"prob" as an integer]), so the probe is not the
    state's perturbation direction."""
    return int(np.random.SeedSequence([seed, 0x70726F62]).generate_state(1, np.uint64)[0])


def cmd_varcheck(config: dict) -> int:
    grid, params, _ = _build_objects(config)
    outdir = _outputs_dir(config)
    vc = config["varcheck"]
    amp = float(vc["amplitude"])
    if amp == 0.0:
        state = State.equilibrium(grid)
    else:
        state = random_band_state(grid, int(vc["seed"]), int(vc["kmax"]), amp)
    report = varcheck.varcheck_report(
        state, params,
        seed=probe_seed(int(vc["seed"])),
        fd_tol=float(vc["fd_rel_tol"]),
        balance_tol=float(vc["balance_tol"]),
        probe_kmax=int(vc["kmax"]),
    )
    varcheck.write_report_json(report, outdir / "varcheck-report.json")
    print(
        "varcheck: conservative {:.3e}, dissipative {:.3e}, balance {:.3e} -> {}".format(
            report["conservative"]["best_rel_err"],
            report["dissipative"]["best_rel_err"],
            report["force_balance_residual"],
            "pass" if report["pass"] else "FAIL",
        )
    )
    return EXIT_OK if report["pass"] else 1


def cmd_decay(config: dict) -> int:
    grid, params, cfg = _build_objects(config)
    outdir = _outputs_dir(config)
    dc = config["decay"]
    exp = decay_mod.DecayExperiment(
        delta0=float(dc["delta0"]),
        seed=int(dc["seed"]),
        mode_profile=dc["mode_profile"],
        cfg=cfg,
        sample_every=int(dc["sample_every"]),
    )
    series = decay_mod.run(exp, grid, params)
    decay_mod.write_series_csv(series, outdir / "decay.csv")
    scaling_ratio = None
    if dc.get("scaling_check") and exp.delta0 > 0:
        half = decay_mod.run(replace(exp, delta0=0.5 * exp.delta0), grid, params)
        if len(half.lyapunov) and half.lyapunov[-1] > 0:
            scaling_ratio = float(series.lyapunov[-1] / half.lyapunov[-1])
    result = decay_mod.summary(exp, series, scaling_ratio)
    decay_mod.write_summary_json(result, outdir / "decay-summary.json")
    if exp.outside_smallness_regime:
        print("decay: flagged outside smallness regime (delta0 > 0.1)")
    verdicts = ("monotonicity_verdict", "rate_ordering_verdict", "scaling_verdict")
    for kind in ("flagged", "inconclusive"):
        named = [k for k in verdicts if result.get(k) == kind]
        if named:
            print(f"decay: {kind} verdicts: {', '.join(named)}")
    print(f"decay: monotonicity {result['monotonicity_verdict']}, "
          f"artifacts in {outdir}")
    if not series.completed:
        print(f"decay run aborted: {series.abort_reason}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_plotdata(config: dict, run_dir: str) -> int:
    """Reshape audit/decay CSVs into tidy (series, t, value) rows; the
    original numeric strings are carried through unchanged so a pivot
    reproduces the source exactly."""
    run_path = Path(run_dir)
    sources = [p for p in (run_path / "audit.csv", run_path / "decay.csv") if p.exists()]
    if not sources:
        raise ConfigError(f"no audit.csv or decay.csv in {run_path}")
    outdir = _outputs_dir(config)
    out_path = outdir / "plotdata.csv"
    with open(out_path, "w") as out:
        out.write("series,t,value\n")
        for src in sources:
            lines = src.read_text().strip().split("\n")
            header = lines[0].split(",")
            for line in lines[1:]:
                cells = line.split(",")
                t = cells[0]
                for name, cell in zip(header[1:], cells[1:]):
                    out.write(f"{src.stem}.{name},{t},{cell}\n")
    print(f"plotdata: wrote {out_path}")
    return EXIT_OK


def cmd_defaults(show_schema: bool) -> int:
    doc = CONFIG_SCHEMA if show_schema else DEFAULTS
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnpf",
        description="Charge/temperature transport on a periodic box with "
        "thermodynamic-structure audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "integrate and write audit.csv and the final checkpoint final.*"),
        ("varcheck", "variational-identity checks -> varcheck-report.json"),
        ("decay", "small-perturbation decay experiment -> decay.csv + summary"),
        ("plotdata", "tidy run CSVs into long-format plotdata.csv"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config value (dotted path, JSON value)",
        )
        p.add_argument("--outputs", help="output directory (overrides config)")
        if name == "plotdata":
            p.add_argument("run_dir", help="directory holding audit.csv/decay.csv")
    p = sub.add_parser("defaults", help="print the default config (or schema)")
    p.add_argument("--schema", action="store_true", help="print the config schema")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "defaults":
        return cmd_defaults(args.schema)
    try:
        config = load_config(args.config, args.set)
        if args.outputs:
            config["outputs"] = args.outputs
        _check_types(config)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "varcheck":
            return cmd_varcheck(config)
        if args.command == "decay":
            return cmd_decay(config)
        if args.command == "plotdata":
            return cmd_plotdata(config, args.run_dir)
    except (EntropyProductionError, StepAbort) as exc:
        # ahead of ValueError: an EntropyProductionError is one, but it is a
        # failure of the run, not of the config
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, NonNeutralSource, PositivityError, ValueError) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
