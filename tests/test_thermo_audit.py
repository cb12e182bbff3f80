"""Trajectory audits: totals against fsum quadrature, the entropy-law,
energy-drift and reciprocity columns of audit_run, fault injection, the
columns and cost of one audit sample, and the run contract."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from pnpf import decay, fields
from pnpf.dynamics import StepperConfig, convert, integrate, step
from pnpf.fields import (
    PhysParams,
    State,
    constitutive_fluxes,
    entropy_production_density,
)
from pnpf.grid import GridSpec, ScalarField
from pnpf.thermo_audit import (
    AuditRecord,
    AuditWriter,
    audit_run,
    totals,
)

from .conftest import count_transforms, peak_grids, perturbed_state


class TestTotals:
    def test_equilibrium(self, grid3d):
        params = PhysParams(c_p=1.5, c_n=1.5)
        s = State.equilibrium(grid3d)
        mass_n, mass_p, E, S, D = totals(
            s, params, entropy_production_density(constitutive_fluxes(s, params), s, params)
        )
        V = grid3d.length**grid3d.dim
        assert abs(mass_n - V) <= 1e-14
        assert abs(mass_p - V) <= 1e-14
        assert abs(E - 3.0 * V) <= 1e-13
        assert abs(S) <= 1e-14
        assert abs(D) <= 1e-25

    def test_matches_fsum_oracle(self, grid3d, params):
        from . import oracles
        from pnpf.fields import energy_density, entropy_density

        s = perturbed_state(grid3d, seed=11, amplitude=1e-2)
        mass_n, mass_p, E, S, D = totals(
            s, params, entropy_production_density(constitutive_fluxes(s, params), s, params)
        )
        fl = constitutive_fluxes(s, params)
        want = [
            oracles.fsum_integral(grid3d, s.n.values),
            oracles.fsum_integral(grid3d, s.p.values),
            oracles.fsum_integral(grid3d, energy_density(s, params).values),
            oracles.fsum_integral(grid3d, entropy_density(s, params).values),
            oracles.fsum_integral(
                grid3d, entropy_production_density(fl, s, params).values
            ),
        ]
        for got, ref in zip((mass_n, mass_p, E, S, D), want):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def relative_residuals(records):
    """The interior dSdt_minus_Delta rows over max(|Delta|, eps) of the run."""
    denom = max(max(abs(rec.Delta) for rec in records), np.finfo(float).eps)
    return np.array([rec.dSdt_minus_Delta for rec in records[1:-1]]) / denom


def audited(tmp_path, params, s0, scheme, dt, steps, audit_every):
    cfg = StepperConfig(scheme=scheme, dt=dt, t_end=dt * steps)
    path = tmp_path / f"audit-{scheme}-{dt!r}-{audit_every}.csv"
    final, records, reason = audit_run(s0, cfg, params, path, audit_every=audit_every)
    assert reason is None
    assert round(records[-1].t / dt) == steps
    return records


class TestEntropyLaw:
    """The dSdt_minus_Delta column of audit_run: the centered difference of
    the sampled S against the sampled entropy production."""

    grid = GridSpec(dim=2, n=16, length=2 * np.pi)

    def test_equilibrium_residual_zero(self, tmp_path, grid3d, params):
        records = audited(tmp_path, params, State.equilibrium(grid3d), "RK4", 1e-3, 4, 1)
        res = relative_residuals(records)
        assert len(res) == 3
        assert np.abs(res).max() <= 1e-12

    def test_needs_three_samples(self, tmp_path, grid3d, params):
        # two samples leave no interior row: both residuals are NaN
        records = audited(tmp_path, params, State.equilibrium(grid3d), "RK4", 1e-3, 1, 1)
        assert len(records) == 2
        assert all(math.isnan(rec.dSdt_minus_Delta) for rec in records)

    def test_small_perturbation_residual(self, tmp_path, params):
        s0 = perturbed_state(self.grid, seed=7, amplitude=1e-2)
        records = audited(tmp_path, params, s0, "RK4", 1e-3, 60, 5)
        assert len(records) == 13
        assert np.abs(relative_residuals(records)).max() <= 0.01

    def test_residual_shrinks_quadratically(self, tmp_path, params):
        # one resolved run audited at two spacings: the centered difference
        # error scales with the square of the sample interval
        s0 = perturbed_state(self.grid, seed=7, amplitude=1e-2)
        res_fine = relative_residuals(audited(tmp_path, params, s0, "RK4", 5e-4, 240, 5))
        res_coarse = relative_residuals(audited(tmp_path, params, s0, "RK4", 5e-4, 240, 10))
        # compare at the shared interior samples (every other fine sample)
        ratio = np.abs(res_coarse[1:-1]).max() / np.abs(res_fine).max()
        assert 2.5 <= ratio <= 6.0


class TestEnergyConservation:
    """The energy_drift_rel column of audit_run: |E(t) - E(0)| / |E(0)|."""

    grid = GridSpec(dim=2, n=16, length=2 * np.pi)

    def drift(self, tmp_path, params, s0, scheme, dt, t_end=0.4):
        steps = int(round(t_end / dt))
        return audited(tmp_path, params, s0, scheme, dt, steps, steps)[-1].energy_drift_rel

    def test_equilibrium(self, tmp_path, grid3d, params):
        assert self.drift(tmp_path, params, State.equilibrium(grid3d), "RK4", 0.1) == 0.0

    def test_rk4_drift_order(self, tmp_path, params):
        s0 = perturbed_state(self.grid, seed=7, amplitude=1e-2)
        d_coarse = self.drift(tmp_path, params, s0, "RK4", 0.02)
        d_fine = self.drift(tmp_path, params, s0, "RK4", 0.01)
        order = math.log2(d_coarse / d_fine)
        assert order >= 3.5

    def test_imex_drift_order(self, tmp_path, params):
        s0 = perturbed_state(self.grid, seed=7, amplitude=1e-2)
        d_coarse = self.drift(tmp_path, params, s0, "IMEX1", 0.02)
        d_fine = self.drift(tmp_path, params, s0, "IMEX1", 0.01)
        order = math.log2(d_coarse / d_fine)
        assert 0.8 <= order <= 1.6


class TestOnsagerResidual:
    """The onsager_residual column of an audit sample, and fault injection
    on its definition fields.flux_reconstruction_residual."""

    grid = GridSpec(dim=3, n=16, length=1.0)

    def test_equilibrium_zero(self, tmp_path, grid3d, params):
        records = audited(tmp_path, params, State.equilibrium(grid3d), "RK4", 1e-3, 1, 1)
        assert all(rec.onsager_residual == 0.0 for rec in records)

    def test_random_state_small(self, tmp_path, params):
        s = perturbed_state(self.grid, seed=13, amplitude=1e-3, kmax=1)
        writer = AuditWriter(tmp_path / "audit.csv", params)
        writer.observe(0.0, s)
        writer.close()
        assert writer.records[0].onsager_residual <= 1e-10

    def test_fault_injection_detected(self, params):
        # on the resolved state above, where the clean block reads rounding
        s = perturbed_state(self.grid, seed=13, amplitude=1e-3, kmax=1)
        block = fields.onsager_block(s, params)
        corrupted = replace(
            block, L_ptheta=ScalarField(self.grid, block.L_ptheta.values * (1 + 5e-3))
        )
        assert fields.flux_reconstruction_residual(s, params, block) <= 1e-10
        assert fields.flux_reconstruction_residual(s, params, corrupted) > 1e-3


class TestAuditSample:
    def test_observe_builds_one_flux_set(self, tmp_path, params, monkeypatch):
        # totals and the reciprocity residual share one pass over the axes
        # per sample, which builds no exchange flux (so no FluxSet)
        calls = {"darcy_axes": 0, "exchange_arrays": 0}
        for kernel in calls:
            real = getattr(fields, kernel)

            def counting(*args, _name=kernel, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for name, mod in list(sys.modules.items()):
                if name.startswith("pnpf") and getattr(mod, kernel, None) is real:
                    monkeypatch.setattr(mod, kernel, counting)
        grid = GridSpec(dim=2, n=8, length=2 * np.pi)
        writer = AuditWriter(tmp_path / "audit.csv", params)
        try:
            writer.observe(0.0, perturbed_state(grid, seed=3, amplitude=1e-2))
        finally:
            writer.close()
        assert calls == {"darcy_axes": 1, "exchange_arrays": 0}

    @pytest.mark.parametrize("dim, n, c_n", [(2, 16, 1.5), (3, 16, 1.5), (3, 8, 1.7)])
    def test_columns_equal_their_definitions(self, tmp_path, dim, n, c_n):
        params = PhysParams(c_p=1.5, c_n=c_n, D_p=0.8, D_n=1.2, k=0.9)
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=11, amplitude=5e-2)
        writer = AuditWriter(tmp_path / "audit.csv", params)
        try:
            writer.observe(0.0, s)
        finally:
            writer.close()
        (rec,) = writer.records
        got = (rec.mass_n, rec.mass_p, rec.E, rec.S, rec.Delta)
        assert got == totals(
            s, params, entropy_production_density(constitutive_fluxes(s, params), s, params)
        )
        assert rec.onsager_residual == fields.flux_reconstruction_residual(s, params)
        if c_n == params.c_p:
            assert rec.lyapunov == decay.lyapunov(convert(s), params)
        else:
            assert math.isnan(rec.lyapunov)

    def test_sample_cost(self, tmp_path, params, monkeypatch):
        # the flux pass 3 + 3 forward and 4 + 3 inverse per axis, the
        # Lyapunov functional 4: at most one RHS evaluation (28)
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=3, amplitude=1e-2)
        writer = AuditWriter(tmp_path / "audit.csv", params)
        counted = count_transforms(monkeypatch)
        try:
            writer.observe(0.0, s)
        finally:
            writer.close()
        assert counted[0] == 31

    # 21.0 full grids at 32^3; a darcy_axes that keeps its 4-field spectrum
    # and phi_hat alive through each axis adds 2.3, and a sample that builds
    # a FluxSet and then the full reconstruction next to it peaks at 42.0
    def test_sample_peak_memory(self, tmp_path, params):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=3, amplitude=1e-2)
        writer = AuditWriter(tmp_path / "audit.csv", params)
        try:
            assert peak_grids(lambda: writer.observe(0.0, s), grid) <= 21.5
        finally:
            writer.close()


class TestAuditRecord:
    def test_rejects_negative_entropy_production(self):
        with pytest.raises(ValueError, match="entropy production"):
            AuditRecord(
                t=0.0, mass_n=1.0, mass_p=1.0, E=3.0, S=0.0, Delta=-1e-10,
                dSdt_minus_Delta=0.0, energy_drift_rel=0.0,
                onsager_residual=0.0, lyapunov=0.0,
            )


class TestAuditWriter:
    def test_csv_round_trip(self, tmp_path, params):
        grid = GridSpec(dim=2, n=8, length=2 * np.pi)
        s0 = perturbed_state(grid, seed=19, amplitude=1e-2)
        cfg = StepperConfig(scheme="RK4", dt=1e-3, t_end=0.02)
        path = tmp_path / "audit.csv"
        final, records, reason = audit_run(s0, cfg, params, path, audit_every=5)
        assert reason is None
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("t,mass_n,mass_p,E,S,Delta")
        assert len(lines) == len(records) + 1
        # full precision round trip
        for line, rec in zip(lines[1:], records):
            vals = [float(x) for x in line.split(",")]
            assert vals[0] == rec.t
            assert vals[3] == rec.E
        # interior rows carry a finite centered residual, endpoints NaN
        assert math.isnan(records[0].dSdt_minus_Delta)
        assert math.isnan(records[-1].dSdt_minus_Delta)
        for rec in records[1:-1]:
            assert math.isfinite(rec.dSdt_minus_Delta)

    def test_mass_columns_constant(self, tmp_path, params):
        grid = GridSpec(dim=2, n=8, length=2 * np.pi)
        s0 = perturbed_state(grid, seed=23, amplitude=1e-2)
        cfg = StepperConfig(scheme="RK4", dt=1e-3, t_end=0.05)
        final, records, _ = audit_run(
            s0, cfg, params, tmp_path / "audit.csv", audit_every=10
        )
        m0 = records[0].mass_n
        for rec in records:
            assert abs(rec.mass_n - m0) <= 1e-12 * abs(m0)
            assert rec.Delta >= -1e-14


def audit_times(records, dt):
    return [round(rec.t / dt) for rec in records]


class TestAuditRun:
    """audit_run returns (final, records, reason) and its last record is
    the audit of `final`, whatever the step count and however the run
    ends."""

    def audit(self, tmp_path, params, steps, audit_every, dt=1e-3):
        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        s0 = perturbed_state(grid, seed=7, amplitude=1e-2)
        cfg = StepperConfig(scheme="RK4", dt=dt, t_end=dt * steps)
        path = tmp_path / "audit.csv"
        final, records, reason = audit_run(s0, cfg, params, path, audit_every=audit_every)
        return final, records, reason, path

    @pytest.mark.parametrize("steps, rows", [
        (17, [0, 5, 10, 15, 17]),  # one row per audit point, plus the final state
        (15, [0, 5, 10, 15]),  # the final state is an audit point: no duplicate
    ])
    def test_final_state_audited_once(self, tmp_path, params, steps, rows):
        dt = 1e-3
        final, records, reason, path = self.audit(tmp_path, params, steps, 5, dt)
        assert reason is None
        assert records[-1].t == steps * dt
        assert audit_times(records, dt) == rows
        assert len(path.read_text().strip().split("\n")) == len(records) + 1
        mass_n, mass_p, E, S, Delta = totals(
            final, params,
            entropy_production_density(constitutive_fluxes(final, params), final, params),
        )
        assert (records[-1].mass_n, records[-1].E, records[-1].S) == (mass_n, E, S)
        assert records[-1].Delta == Delta

    def test_short_last_interval_keeps_the_entropy_residual(self, tmp_path, params):
        # the row before the short last interval (t = 15 dt, next sample at
        # 17 dt) must be as accurate as the evenly spaced interior rows
        _, records, _, _ = self.audit(tmp_path, params, 17, 5)
        rel = [abs(rec.dSdt_minus_Delta) / rec.Delta for rec in records[1:-1]]
        assert all(math.isfinite(r) for r in rel)
        assert rel[-1] <= 10.0 * max(rel[:-1])
        assert max(rel) <= 1e-2

    def test_uniform_samples_match_the_centered_difference(self, tmp_path, params):
        dt, every = 1e-3, 5
        _, records, _, _ = self.audit(tmp_path, params, 20, every, dt)
        h = every * dt
        for prev, mid, nxt in zip(records, records[1:], records[2:]):
            centered = (nxt.S - prev.S) / (2.0 * h) - mid.Delta
            assert abs(mid.dSdt_minus_Delta - centered) <= 1e-9 * mid.Delta

    def test_abort_audits_the_last_good_state(self, tmp_path, params):
        from pnpf.dynamics import StepAbort, stability_bound

        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        s0 = perturbed_state(grid, seed=31, amplitude=1e-2)
        dt = 2.0 * stability_bound(grid, params, "RK4")
        cfg = StepperConfig(scheme="RK4", dt=dt, t_end=dt * 60)
        # the same trajectory driven by hand: index and state before the abort
        last_i, last = 0, s0
        with pytest.raises(StepAbort):
            for last_i, _, last in integrate(s0, cfg, params):
                pass
        assert last_i < 60

        path = tmp_path / "audit.csv"
        final, records, reason = audit_run(s0, cfg, params, path, audit_every=3)
        assert reason is not None and "positivity" in reason
        np.testing.assert_array_equal(final.n.values, last.n.values)
        assert records[-1].t == last_i * dt
        assert records[-1].S == totals(
            final, params,
            entropy_production_density(constitutive_fluxes(final, params), final, params),
        )[3]
        times = audit_times(records, dt)
        assert times[:-1] == list(range(0, last_i, 3))
        assert times[-1] == last_i
        # the CSV keeps every row, the last one included
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(records) + 1
        assert [float(line.split(",")[0]) for line in lines[1:]] == [r.t for r in records]


class TestFusedSample:
    """An audited state that is stepped further takes its sample from the
    step's first RHS evaluation (fields.AuditSink); the step and the
    sample keep the bits of an unaudited step and of fields.flux_audit."""

    PARAMS = PhysParams(c_p=1.3, c_n=1.7, D_p=0.8, D_n=1.2, k=0.9)

    @pytest.mark.parametrize("scheme", ["RK4", "IMEX1"])
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 8)])
    def test_step_and_sample_keep_their_bits(self, scheme, dealias, dim, n):
        grid = GridSpec(dim=dim, n=n, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        cfg = StepperConfig(scheme=scheme, dt=1e-3, dealias=dealias)
        sink = fields.AuditSink(s, self.PARAMS)
        got = step(s, cfg, self.PARAMS, sink)
        want = step(s, cfg, self.PARAMS)
        for name in ("n", "p", "theta", "phi"):
            assert np.array_equal(getattr(got, name).values, getattr(want, name).values)
        ref = fields.flux_audit(s, self.PARAMS)
        assert np.array_equal(sink.audit.production.values, ref.production.values)
        assert sink.audit.residual == ref.residual

    def test_perturbation_step_refuses_a_sink(self):
        grid = GridSpec(dim=2, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        with pytest.raises(TypeError, match="State"):
            step(convert(s), StepperConfig(), PhysParams(), fields.AuditSink(s, PhysParams()))

    def test_audited_imex1_step_cost(self, monkeypatch):
        # the step 30, the residual's forward transform of (mu_p/theta,
        # mu_n/theta, 1/theta) 3 and its 3-field inverse per axis 9; the
        # Darcy pass is the core's
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        sink = fields.AuditSink(s, self.PARAMS)
        counted = count_transforms(monkeypatch)
        step(s, StepperConfig(scheme="IMEX1", dt=1e-3), self.PARAMS, sink)
        assert counted[0] == 30 + 3 + 9

    def test_audit_run_cost(self, tmp_path, monkeypatch):
        # four audited IMEX1 steps of 42 with their samples' Lyapunov 4
        # (c_p == c_n), and the final state's standalone sample 31;
        # observing each state on its own costs 4 * (30 + 31) + 31 = 275
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        cfg = StepperConfig(scheme="IMEX1", dt=1e-3, t_end=4e-3)
        counted = count_transforms(monkeypatch)
        audit_run(s, cfg, PhysParams(), tmp_path / "audit.csv", audit_every=1)
        assert counted[0] == 4 * (42 + 4) + 31

    # at 32^3 the audited steps peak at 32.0 (RK4) and 26.3 (IMEX1) full
    # grids, one grid above the unaudited steps (38.2 and 29.2 with the
    # nine running sums of the unfolded heat rate); coefficient arrays
    # built before the RHS axis loop would add their grids to the loop's
    # peak
    @pytest.mark.parametrize(
        "scheme, dt, bound", [("RK4", 1e-4, 32.5), ("IMEX1", 1e-3, 27.0)], ids=["RK4", "IMEX1"]
    )
    def test_audited_step_peak_memory(self, scheme, dt, bound):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        cfg = StepperConfig(scheme=scheme, dt=dt)
        audited = lambda: step(s, cfg, self.PARAMS, fields.AuditSink(s, self.PARAMS))
        assert peak_grids(audited, grid) <= bound

    @pytest.mark.parametrize("scheme", ["RK4", "IMEX1"])
    def test_csv_equals_the_standalone_samples(self, tmp_path, scheme):
        # audit_run against the same trajectory sampled by hand, every
        # sample through fields.flux_audit
        grid = GridSpec(dim=2, n=16, length=2 * np.pi)
        s0 = perturbed_state(grid, seed=7, amplitude=1e-2)
        cfg = StepperConfig(scheme=scheme, dt=1e-3, t_end=7e-3)
        fused = tmp_path / "fused.csv"
        audit_run(s0, cfg, self.PARAMS, fused, audit_every=2)
        alone = tmp_path / "alone.csv"
        writer = AuditWriter(alone, self.PARAMS)
        try:
            for i, t, s in integrate(s0, cfg, self.PARAMS):
                if i % 2 == 0 or i == cfg.n_steps:
                    writer.observe(t, s)
        finally:
            writer.close()
        assert fused.read_bytes() == alone.read_bytes()


class TestAuditTrail:
    """The row of an audited state survives however its step ends."""

    grid = GridSpec(dim=2, n=16, length=2 * np.pi)

    def test_abort_before_the_first_rhs_uses_the_standalone_sample(
        self, tmp_path, params, monkeypatch
    ):
        # a stage floor above the state's minimum aborts before any RHS
        s0 = perturbed_state(self.grid, seed=7, amplitude=1e-2)
        cfg = StepperConfig(scheme="IMEX1", dt=1e-3, t_end=5e-3, positivity_floor=1.5)
        from pnpf import thermo_audit

        calls = []
        real = thermo_audit.flux_audit
        monkeypatch.setattr(
            thermo_audit, "flux_audit", lambda *args: calls.append(None) or real(*args)
        )
        path = tmp_path / "audit.csv"
        final, records, reason = audit_run(s0, cfg, params, path, audit_every=1)
        assert "positivity" in reason and "1.5" in reason
        assert final is s0
        assert len(calls) == 1
        assert [rec.t for rec in records] == [0.0]
        assert len(path.read_text().strip().split("\n")) == 2
        assert records[0].Delta == totals(s0, params, real(s0, params).production)[4]

    def test_other_exceptions_keep_the_row(self, tmp_path, params, monkeypatch):
        # the third step fails after its first RHS with something that is
        # not a StepAbort: the row of the state it started from is written
        from pnpf import dynamics, thermo_audit

        s0 = perturbed_state(self.grid, seed=7, amplitude=1e-2)
        dt = 1e-3
        cfg = StepperConfig(scheme="RK4", dt=dt, t_end=6 * dt)
        calls = []

        def failing(state, cfg, params, sink=None):
            calls.append(state)
            nxt = dynamics.step(state, cfg, params, sink)
            if len(calls) == 3:
                raise MemoryError("out of memory in step 3")
            return nxt

        monkeypatch.setattr(thermo_audit, "step", failing)
        path = tmp_path / "audit.csv"
        with pytest.raises(MemoryError):
            audit_run(s0, cfg, params, path, audit_every=1)
        rows = [[float(x) for x in line.split(",")] for line in path.read_text().split("\n")[1:-1]]
        assert [row[0] for row in rows] == [0.0, dt, 2 * dt]
        s2 = calls[2]
        production = entropy_production_density(constitutive_fluxes(s2, params), s2, params)
        assert rows[-1][1:6] == list(totals(s2, params, production))
        assert rows[-1][8] == fields.flux_reconstruction_residual(s2, params)
