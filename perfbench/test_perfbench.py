"""Self-tests of the benchmark's generator, workloads, output checks and tracer."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny solve of every workload, with its set-up."""
    done = {}
    for name in WORKLOADS:
        su = workloads.setup(workloads.resolve(name, 3, tiny=True))
        outdir = tmp_path_factory.mktemp(name)
        done[name] = (su, workloads.solve(su, outdir, 0))
    return done


# -- seeded generator ---------------------------------------------------------------


def test_generator_is_deterministic_neutral_positive_and_seeded():
    wl = workloads.resolve("step_3d", 5, tiny=True)
    a = workloads.primitive_arrays(wl)
    b = workloads.primitive_arrays(wl)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    n, p, theta = a
    assert abs(float((n - p).mean())) < 1e-15
    assert min(float(n.min()), float(p.min()), float(theta.min())) > 0.98
    other = workloads.primitive_arrays(workloads.resolve("step_3d", 6, tiny=True))
    assert not np.array_equal(n, other[0])


def test_generator_is_band_limited():
    (f,) = workloads.band_fields(2, 16, seed=1, band=2, amplitude=0.5, count=1)
    spec = np.fft.rfftn(f)
    m0 = np.abs(np.fft.fftfreq(16, 1 / 16))[:, None]
    m1 = np.abs(np.fft.rfftfreq(16, 1 / 16))[None, :]
    outside = (m0 > 2) | (m1 > 2)
    assert np.abs(spec[outside]).max() < 1e-12
    assert np.abs(f).max() == pytest.approx(0.5)


def test_derived_seeds_follow_the_workload_seed():
    assert workloads.resolve("decay_2d", 7)["decay_seed"] == 7
    a = workloads.resolve("varcheck_3d", 7)["probe_seed_list"]
    b = workloads.resolve("varcheck_3d", 8)["probe_seed_list"]
    assert len(set(a)) == len(a) and not set(a) & set(b)


# -- every workload passes at a tiny size -----------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_its_checks(outputs, name):
    su, out = outputs[name]
    ops = checks.check(su, out)
    assert ops and all(p == [] for p in ops), ops
    assert checks.check_identity(workloads.primitive_state(su), su.params) == []


def test_step_counts_are_multiples_of_the_audit_interval():
    for name, wl in WORKLOADS.items():
        if wl["kind"] == "audit":
            assert wl["steps"] % wl["audit_every"] == 0, name
            tiny = workloads.resolve(name, 1, tiny=True)
            assert tiny["steps"] % tiny["audit_every"] == 0, name


# -- each check can fail ---------------------------------------------------------------


def _failed_ops(ops):
    return [i for i, p in enumerate(ops) if p]


@pytest.mark.parametrize("field,corrupt", [
    ("mass_n", lambda x: x * (1 + 1e-9)),
    ("mass_p", lambda x: x * (1 - 1e-9)),
    ("E", lambda x: x * (1 + 1e-3)),
    ("onsager_residual", lambda x: 1e-6),
    ("Delta", lambda x: -1e-15),
    ("S", lambda x: float("nan")),
    ("dSdt_minus_Delta", lambda x: float("nan")),
])
def test_audit_check_rejects_corrupted_sample(outputs, field, corrupt):
    su, out = outputs["audit_3d"]
    recs = list(out.records)
    recs[1] = replace(recs[1], **{field: corrupt(getattr(recs[1], field))})
    assert _failed_ops(checks.check(su, replace(out, records=recs))) == [1]


def test_audit_check_counts_an_abort_and_missing_samples(outputs):
    su, out = outputs["audit_3d"]
    cut = replace(out, records=out.records[:2], reason="positivity floor breached")
    ops = checks.check(su, cut)
    assert _failed_ops(ops) == list(range(2, len(out.records)))


def test_audit_check_rejects_a_changed_checkpoint(outputs, tmp_path):
    su, out = outputs["step_3d"]
    prefix = tmp_path / "final"
    for f in out.prefix.parent.glob(out.prefix.name + ".*"):
        shutil.copy(f, tmp_path / f.name)
    raw = bytearray(prefix.with_suffix(".snap").read_bytes())
    raw[-1] ^= 1
    prefix.with_suffix(".snap").write_bytes(bytes(raw))
    ops = checks.check(su, replace(out, prefix=prefix))
    assert _failed_ops(ops) == [len(ops) - 1]


def _decay_with(out, **series_changes):
    return replace(out, series=replace(out.series, **series_changes))


def test_decay_check_rejects_non_monotone_lyapunov(outputs):
    su, out = outputs["decay_2d"]
    lam = out.series.lyapunov.copy()
    lam[5] = lam[4] * 1.01
    assert _failed_ops(checks.check(su, _decay_with(out, lyapunov=lam))) == [0]


def test_decay_check_rejects_scaling_ratio_and_abort(outputs):
    su, out = outputs["decay_2d"]
    assert _failed_ops(checks.check(su, replace(out, ratio=3.0))) == [0]
    half = replace(out.half, completed=False, abort_reason="non-finite values in v")
    assert _failed_ops(checks.check(su, replace(out, half=half))) == [1]


def test_decay_rate_ordering_counts_only_when_u_decays(outputs):
    su, out = outputs["decay_2d"]
    t = out.series.t
    decaying = np.exp(-2.0 * t)
    # u decays faster than v: a real ordering violation
    bad = _decay_with(out, u_l2=np.exp(-5.0 * t), v_l2=decaying)
    assert _failed_ops(checks.check(su, bad)) == [0]
    # u grows, so "v decays faster than u" is vacuous and is not counted
    growing = _decay_with(out, u_l2=np.exp(1.0 * t), v_l2=np.exp(2.0 * t))
    assert _failed_ops(checks.check(su, growing)) == []


def test_decay_check_rejects_nan_row(outputs):
    su, out = outputs["decay_2d"]
    v = out.series.v_l2.copy()
    v[3] = np.nan
    assert _failed_ops(checks.check(su, _decay_with(out, v_l2=v))) == [0]


def test_varcheck_check_rejects_failed_report(outputs):
    su, out = outputs["varcheck_3d"]
    failed = dict(out.report, **{"pass": False})
    assert _failed_ops(checks.check(su, replace(out, report=failed))) == [0]


def test_varcheck_check_does_not_trust_the_verdict(outputs):
    su, out = outputs["varcheck_3d"]
    rep = json.loads(json.dumps(out.report))
    rep["force_balance_residual"] = 1e-3  # verdict still "pass"
    assert _failed_ops(checks.check(su, replace(out, report=rep))) == [0]
    rep = json.loads(json.dumps(out.report))
    rep["conservative"]["best_rel_err"] = 1e-2
    assert _failed_ops(checks.check(su, replace(out, report=rep))) == [0]


def test_identity_check_rejects_an_aliased_state():
    from pnpf.fields import PhysParams, State
    from pnpf.grid import GridSpec, ScalarField

    # white noise is not dealiased, so the two formulations differ
    g = GridSpec(3, 16, 2 * np.pi)
    gen = np.random.default_rng(0)
    ut, v, tt = (0.05 * gen.standard_normal(g.shape) for _ in range(3))
    v -= v.mean()
    s = State.from_primitives(ScalarField(g, 1 + 0.5 * (ut + v)),
                              ScalarField(g, 1 + 0.5 * (ut - v)), ScalarField(g, 1 + tt))
    assert checks.check_identity(s, PhysParams())


# -- tracer --------------------------------------------------------------------------


def test_tracer_counts_transforms_and_restores_the_package(outputs, tmp_path):
    from pnpf import dynamics, fields, thermo_audit
    from pnpf.grid import GridSpec

    originals = (GridSpec.fft, dynamics._rhs_primitive_arrays, thermo_audit.constitutive_fluxes)
    su, _ = outputs["audit_3d"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # wrapped where it is looked up, not only where it is defined
        assert thermo_audit.constitutive_fluxes is fields.constitutive_fluxes
        assert thermo_audit.constitutive_fluxes is not originals[2]
        workloads.solve(su, tmp_path, 0)
    finally:
        tracer.uninstall()
    assert originals == (GridSpec.fft, dynamics._rhs_primitive_arrays,
                         thermo_audit.constitutive_fluxes)
    m = tracing.layer_metrics([tracer.spans])
    assert m["dynamics.rhs_primitive.transforms"] == 28
    assert m["dynamics.step.transforms"] == 41  # IMEX1 at d=3
    assert m["poisson.solve.calls_per_step"] == 1
    assert m["fields.constitutive_fluxes.calls_per_sample"] == 3
    steps = su.wl["steps"]
    assert m["grid.transform.fields"] == (
        steps * m["dynamics.step.transforms"]
        + (steps + 1) * m["thermo_audit.observe.transforms"]
    )


def test_reference_does_not_run_pnpf():
    import child

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert min(child._reference((16, 16))) > 0
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_self_time_excludes_children():
    t = tracing.Tracer()
    inner = t._wrap("inner", lambda: sum(range(20000)))
    outer = t._wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    (o,) = [s for s in t.spans if s[tracing.NAME] == "outer"]
    kids = sum(s[tracing.END] - s[tracing.START] for s in t.spans if s[tracing.PARENT] == 0)
    assert o[tracing.CHILD] == pytest.approx(kids)
    assert o[tracing.PARENT] == -1


@pytest.mark.parametrize("name", ["step_3d", "decay_2d"])
def test_traced_child_reports_every_layer_metric(tmp_path, name):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = tmp_path / "measure.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", "2",
         "--mode", "measure", "--seconds", "0.2", "--trace", "1", "--tiny", "--out", str(out)],
        check=True, timeout=120, env={"PYTHONPATH": str(HERE.parent / "src")},
    )
    res = json.loads(out.read_text())
    assert "identity_problems" not in res  # checked in a set-up process instead
    assert all(s["failed"] == 0 and s["ref_cpu_s"] > 0 and s["ref_wall_s"] > 0
               for s in res["solves"])
    # run.py adds these from the set-up processes and the untraced solves
    added = {"setup.wall_s", "setup.grid_ms", "setup.initial_state_ms", "wall_ref", "wall_s",
             "cpu_s", "ref.wall_s", "ref.cpu_s"}
    wanted = {m["name"] for m in spec["per_layer"]} - added
    assert wanted <= set(res["layers"])


def test_setup_child_checks_the_identity(tmp_path):
    out = tmp_path / "setup.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", "decay_2d", "--seed", "2",
         "--mode", "setup", "--identity", "--tiny", "--out", str(out)],
        check=True, timeout=120, env={"PYTHONPATH": str(HERE.parent / "src")},
    )
    res = json.loads(out.read_text())
    assert res["identity_problems"] == []
    assert res["setup"]["setup_thread_s"] > 0 and res["setup"]["ref_thread_s"] > 0


# -- the runner outside a checkout ---------------------------------------------------


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "step_3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
