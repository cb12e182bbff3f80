"""Trajectory audits: totals against fsum quadrature, the entropy-law,
energy-drift and reciprocity columns of audit_run, fault injection, the
columns and cost of one audit sample, and the run contract."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from pnpf import cli, decay, fields, thermo_audit
from pnpf.dynamics import StepperConfig, carried, convert, integrate, step
from pnpf.fields import PhysParams, State
from pnpf.grid import GridSpec, ScalarField
from pnpf.thermo_audit import (
    AuditRecord,
    AuditWriter,
    EntropyProductionError,
    audit_run,
    totals,
)

from . import oracles
from .conftest import count_transforms, peak_grids, perturbed_state
from .oracles import (
    constitutive_fluxes,
    entropy_production_density,
    flux_reconstruction_residual,
    onsager_block,
)


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
    on the column and on its definition oracles.flux_reconstruction_residual."""

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
        block = onsager_block(s, params)
        corrupted = replace(
            block, L_ptheta=ScalarField(self.grid, block.L_ptheta.values * (1 + 5e-3))
        )
        assert flux_reconstruction_residual(s, params, block) <= 1e-10
        assert flux_reconstruction_residual(s, params, corrupted) > 1e-3

    @pytest.mark.parametrize("scale, ok", [(1.0, True), (1 + 5e-3, False)])
    def test_fault_injection_reaches_the_column(
        self, tmp_path, params, monkeypatch, scale, ok
    ):
        # L_ptheta scaled where the audit builds it: every row of a run
        # flags it, the step-fed samples and the final standalone one alike
        real = fields._ion_coefficients

        def scaled(*args):
            L_pp, L_nn, L_pth, L_nth = real(*args)
            return L_pp, L_nn, L_pth * scale, L_nth

        monkeypatch.setattr(fields, "_ion_coefficients", scaled)
        s = perturbed_state(self.grid, seed=13, amplitude=1e-3, kmax=1)
        records = audited(tmp_path, params, s, "RK4", 1e-5, 2, 1)
        assert len(records) == 3
        for rec in records:
            assert (rec.onsager_residual <= 1e-10) if ok else (rec.onsager_residual > 1e-3)


class TestAuditSample:
    def test_observe_builds_one_flux_set(self, tmp_path, params, monkeypatch):
        # totals and the reciprocity residual share one pass over the axes
        # per sample, which builds no exchange flux (so no FluxSet)
        calls = {"darcy_axes": 0, "exchange_arrays": 0}
        for kernel, home in (("darcy_axes", fields), ("exchange_arrays", oracles)):
            real = getattr(home, kernel)

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
        assert rec.onsager_residual == flux_reconstruction_residual(s, params)
        if c_n == params.c_p:
            # from the spectrum of (n, p, theta), converted spectrally: the
            # four-field reference to rounding
            want = oracles.lyapunov(convert(s), params)
            assert abs(rec.lyapunov - want) <= 1e-14 * want
        else:
            assert math.isnan(rec.lyapunov)

    def test_sample_cost(self, tmp_path, params, monkeypatch):
        # the flux pass 3 + 3 forward and 2 + 2 + 3 inverse per axis, the
        # Lyapunov functional the 3 of (n, p, theta)
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=3, amplitude=1e-2)
        writer = AuditWriter(tmp_path / "audit.csv", params)
        counted = count_transforms(monkeypatch)
        try:
            writer.observe(0.0, s)
        finally:
            writer.close()
        assert sum(counted) == 30

    def test_carried_sample_cost(self, tmp_path, params, monkeypatch):
        # a State that carries its spectrum: the flux pass reads it, 4 per
        # axis, the residual 3 + 3 per axis, and the Lyapunov functional
        # takes its four spectra from it and transforms nothing
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = carried(perturbed_state(grid, seed=3, amplitude=1e-2), StepperConfig())
        writer = AuditWriter(tmp_path / "audit.csv", params)
        counted = count_transforms(monkeypatch)
        try:
            writer.observe(0.0, s)
        finally:
            writer.close()
        assert sum(counted) == 24
        # Lambda from the spectrum is Lambda of the converted state to rounding
        want = oracles.lyapunov(convert(s), params)
        assert abs(writer.records[0].lyapunov - want) <= 1e-14 * want

    # 19.8 full grids at 32^3, slots included, with the residual's
    # quotients and energy weights built in the slots' rows (20.1 with the
    # potentials mu_p and mu_n as arrays of their own, 20.4 with the
    # quotients stacked from temporaries, 21.0 with one 4-field Darcy
    # inverse per axis as well); a darcy_axes that keeps its spectra and
    # phi_hat alive through each axis adds 2.3, and a sample that builds a
    # FluxSet and then the full reconstruction next to it peaks at 42.0
    def test_sample_peak_memory(self, tmp_path, params):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=3, amplitude=1e-2)
        writer = AuditWriter(tmp_path / "audit.csv", params)
        try:
            assert peak_grids(lambda: writer.observe(0.0, s), grid) <= 20.2
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

    @pytest.mark.parametrize("name", ["E", "lyapunov", "dSdt_minus_Delta"])
    def test_rejects_an_infinite_column(self, name):
        # NaN stays allowed: it marks a missing neighbor sample
        cols = dict(t=0.0, mass_n=1.0, mass_p=1.0, E=3.0, S=0.0, Delta=0.0,
                    dSdt_minus_Delta=math.nan, energy_drift_rel=0.0,
                    onsager_residual=0.0, lyapunov=math.nan)
        AuditRecord(**cols)
        with pytest.raises(ValueError, match=f"AuditRecord.{name} is not finite"):
            AuditRecord(**dict(cols, **{name: math.inf}))


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
        # the sample is of the state the step works on: s itself, with its
        # spectrum, or with dealias on its band projection
        worked = carried(s, cfg)
        assert sink.state.spec is not None
        for name in ("n", "p", "theta", "phi"):
            assert np.array_equal(getattr(sink.state, name).values, getattr(worked, name).values)
        ref = fields.flux_audit(worked, self.PARAMS)
        assert np.array_equal(sink.audit.production.values, ref.production.values)
        assert sink.audit.residual == ref.residual

    def test_perturbation_step_refuses_a_sink(self):
        grid = GridSpec(dim=2, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        with pytest.raises(TypeError, match="State"):
            step(convert(s), StepperConfig(), PhysParams(), fields.AuditSink(s, PhysParams()))

    def test_audited_imex1_step_cost(self, monkeypatch):
        # the one-off step 29 (test_dynamics.py TestSpectralCore; 33 while
        # the dealiased core took the six fluxes' forward transforms), the
        # residual's forward transform of (mu_p/theta, mu_n/theta, 1/theta)
        # 3 and three one-field inverses per axis 9; the Darcy pass is the
        # core's
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        sink = fields.AuditSink(s, self.PARAMS)
        counted = count_transforms(monkeypatch)
        step(s, StepperConfig(scheme="IMEX1", dt=1e-3), self.PARAMS, sink)
        assert sum(counted) == 29 + 3 + 9

    def test_audit_run_cost(self, tmp_path, monkeypatch):
        # the projection of the initial state 3 + 4, four audited IMEX1
        # steps of a carried state, 22 + 12 each (26 + 12 while the
        # dealiased core took the six fluxes' forward transforms), whose
        # samples take their Lyapunov functional from the carried spectrum
        # (c_p == c_n), and the final state's standalone sample 24, whose
        # Darcy pass reads its spectrum; observing each state on its own
        # costs 7 + 4 * (22 + 24) + 24 = 215 (4 * (42 + 4) + 31 = 215 and 275
        # when the steps ran on real arrays and every sample transformed its
        # state)
        grid = GridSpec(dim=3, n=8, length=2 * np.pi)
        s = perturbed_state(grid, seed=9, amplitude=5e-2)
        cfg = StepperConfig(scheme="IMEX1", dt=1e-3, t_end=4e-3)
        counted = count_transforms(monkeypatch)
        audit_run(s, cfg, PhysParams(), tmp_path / "audit.csv", audit_every=1)
        assert sum(counted) == 7 + 4 * (22 + 12) + 24

    # at 32^3 the one-off audited steps peak at 30.3 (RK4) and 28.3 (IMEX1)
    # full grids, slots and the band projection of the state, which carries
    # no spectrum, included (test_dynamics.py TestStreamedKernels); the
    # audited steps of a run, from a carried state with the run's slots, at
    # 18.0 and 16.0 (19.2 and 19.2 when the steps ran on real arrays).  The
    # one-off ones were 24.3 and 24.3 without the projection, RK4 25.0 while
    # the last row of each stage's derivative kept it alive through the
    # next stage, IMEX1 25.8 with its update out of place, and 38.2 and
    # 29.2 with the nine running sums of the unfolded heat rate.  The
    # audited RHS keeps every axis's fluxes for the residual and transforms
    # them only after it, so the residual runs next to the same grids as
    # with one (2*dim+1)-row buffer; coefficient arrays built before the RHS
    # axis loop would add their grids to the loop's peak
    @pytest.mark.parametrize(
        "scheme, dt, bound", [("RK4", 1e-4, 30.7), ("IMEX1", 1e-3, 28.7)], ids=["RK4", "IMEX1"]
    )
    def test_audited_step_peak_memory(self, scheme, dt, bound):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        s = perturbed_state(grid, seed=5, amplitude=5e-2)
        cfg = StepperConfig(scheme=scheme, dt=dt)
        audited = lambda: step(s, cfg, self.PARAMS, fields.AuditSink(s, self.PARAMS))
        assert peak_grids(audited, grid) <= bound

    @pytest.mark.parametrize(
        "scheme, dt, bound", [("RK4", 1e-4, 17.0), ("IMEX1", 1e-3, 16.1)], ids=["RK4", "IMEX1"]
    )
    def test_audited_run_step_peak_memory(self, scheme, dt, bound):
        grid = GridSpec(dim=3, n=32, length=2 * np.pi)
        cfg = StepperConfig(scheme=scheme, dt=dt)
        slots = fields.new_slots(grid)
        s = carried(perturbed_state(grid, seed=5, amplitude=5e-2), cfg, slots)
        audited = lambda: step(s, cfg, self.PARAMS, fields.AuditSink(s, self.PARAMS), slots)
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

        def failing(state, cfg, params, *rest):
            calls.append(state)
            nxt = dynamics.step(state, cfg, params, *rest)
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
        assert rows[-1][8] == flux_reconstruction_residual(s2, params)


class TestSecondLawBreach:
    """A sample whose entropy production is below DELTA_FLOOR stops the run
    at that sample: state 2 of an audit-every-step run is sampled after
    step 3, so the run takes 3 steps and writes the rows of states 0 and 1."""

    dt = 1e-3

    @pytest.fixture
    def breach(self, monkeypatch):
        """Count the steps audit_run takes and make the third sample (of
        state 2) read Delta = -1."""
        steps, samples = [], []
        real_step, real_totals = thermo_audit.step, thermo_audit.totals

        def counted(*args):
            steps.append(None)
            return real_step(*args)

        def breached(*args):
            samples.append(None)
            out = real_totals(*args)
            return out[:4] + (-1.0,) if len(samples) == 3 else out

        monkeypatch.setattr(thermo_audit, "step", counted)
        monkeypatch.setattr(thermo_audit, "totals", breached)
        return steps

    def test_audit_run_stops_at_the_breaching_sample(self, tmp_path, params, breach):
        s0 = State.equilibrium(GridSpec(dim=2, n=16, length=2 * np.pi))
        cfg = StepperConfig(dt=self.dt, t_end=0.01)
        path = tmp_path / "audit.csv"
        with pytest.raises(EntropyProductionError, match="entropy production"):
            audit_run(s0, cfg, params, path, audit_every=1)
        assert len(breach) == 3
        rows = [[float(x) for x in line.split(",")] for line in path.read_text().split("\n")[1:-1]]
        assert [row[0] for row in rows] == [0.0, self.dt]

    def test_cli_exits_3(self, tmp_path, capsys, breach):
        code = cli.main([
            "run",
            "--set", "grid.dim=2",
            "--set", "grid.n=16",
            "--set", f"stepper.dt={self.dt}",
            "--set", "stepper.t_end=0.01",
            "--set", "audit_every=1",
            "--outputs", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_RUNTIME == 3
        assert "entropy production" in err
        assert "Traceback" not in err
        assert len(breach) == 3


class TestSlots:
    """A run's slots carry nothing from one kernel, step or run to the
    next: every kernel writes a slot before it reads it, so neither what
    other kernels left in the memory nor NaN in every slot changes a bit.
    The same holds for the perturbation form's buffers
    (dynamics.new_perturbation_slots)."""

    grid = GridSpec(dim=3, n=16, length=2 * np.pi)
    PARAMS = PhysParams(c_p=1.3, c_n=1.7, D_p=0.8, D_n=1.2, k=0.9)

    def runs(self, tmp_path, tag):
        """(final state, records) of an audited RK4 run and an audited
        IMEX1 run of three steps each."""
        s0 = perturbed_state(self.grid, seed=21, amplitude=5e-2)
        out = []
        for scheme, dt in (("RK4", 1e-3), ("IMEX1", 2e-3)):
            cfg = StepperConfig(scheme=scheme, dt=dt, t_end=3 * dt)
            path = tmp_path / f"{tag}-{scheme}.csv"
            final, records, reason = audit_run(s0, cfg, self.PARAMS, path, audit_every=1)
            assert reason is None and len(records) == 4
            out.append((final, records))
        return out

    def decay_series(self):
        """The series of a 3-step RK4 decay run on the class's grid."""
        exp = decay.DecayExperiment(delta0=5e-2, mode_profile="random_band", sample_every=1,
                                    cfg=StepperConfig(dt=1e-3, t_end=3e-3))
        series = decay.run(exp, self.grid, PhysParams())
        assert series.completed and len(series.t) == 4
        return np.array([getattr(series, name) for name in decay.SERIES_COLUMNS])

    def perturbation_steps(self, slots):
        """One perturbation step each under RK4, IMEX1 and undealiased RK4,
        with the buffers slots() gives (None: call-local ones)."""
        ps = convert(perturbed_state(self.grid, seed=21, amplitude=5e-2))
        out = []
        for scheme, dt, dealias in (("RK4", 1e-3, True), ("IMEX1", 2e-3, True),
                                    ("RK4", 1e-3, False)):
            cfg = StepperConfig(scheme=scheme, dt=dt, t_end=dt, dealias=dealias)
            new = step(ps, cfg, PhysParams(), slots=slots())
            out.append([getattr(new, name).values for name in ("u_tilde", "v", "theta_tilde", "phi")])
        return np.array(out)

    @staticmethod
    def assert_same(a, b):
        for (fa, ra), (fb, rb) in zip(a, b):
            for name in ("n", "p", "theta", "phi"):
                assert np.array_equal(getattr(fa, name).values, getattr(fb, name).values), name
            rows = lambda records: np.array([list(vars(r).values()) for r in records])
            assert np.array_equal(rows(ra), rows(rb), equal_nan=True)

    def test_a_second_run_keeps_the_first_runs_bits(self, tmp_path):
        from pnpf.grid import grad_arrays
        from pnpf.varcheck import varcheck_report

        first = self.runs(tmp_path, "first")
        first_decay = self.decay_series()
        s = first[1][0]
        varcheck_report(s, self.PARAMS, seed=3, probe_kmax=1)
        fields.flux_audit(s, self.PARAMS)
        self.assert_same(first, self.runs(tmp_path, "second"))
        assert np.array_equal(first_decay, self.decay_series())

        # constitutive_fluxes copies grad(phi) out of the kernel's slots
        # before the next axis overwrites them; each flux matches its
        # definition, in the expanded form the kernel uses (the products
        # p theta and n theta are not band-limited), with grad(phi) from
        # phi itself
        P, g = self.PARAMS, self.grid
        n, p, th, phi = s.n.values, s.p.values, s.theta.values, s.phi.values
        fl = constitutive_fluxes(s, P)
        g_n, g_p, g_th, g_phi = (grad_arrays(g, f) for f in (n, p, th, phi))
        g_phit = grad_arrays(g, fl.phi_t.values)
        a, b = oracles.energy_weights(th, phi, P)
        for i in range(g.dim):
            j_p = -P.D_p * (th * g_p[i] + p * g_th[i] + p * g_phi[i])
            j_n = -P.D_n * (th * g_n[i] + n * g_th[i] - n * g_phi[i])
            exchange = 0.5 * (fl.phi_t.values * g_phi[i] - phi * g_phit[i])
            for got, want in ((fl.j_p, j_p), (fl.j_n, j_n), (fl.q, -P.k * g_th[i]),
                              (fl.exchange, exchange)):
                assert np.abs(got.components[i] - want).max() <= 1e-12 * np.abs(want).max()
            j_p, j_n, exchange, q = (v.components[i] for v in (fl.j_p, fl.j_n, fl.exchange, fl.q))
            j_e = a * j_p + b * j_n + exchange + q
            assert np.array_equal(fl.j_e.components[i], j_e)

    def test_slots_full_of_nan_change_nothing(self, tmp_path, monkeypatch):
        from pnpf import dynamics

        clean = self.runs(tmp_path, "clean")
        real = fields.new_slots

        def poisoned(grid):
            slots = real(grid)
            slots.rows.fill(np.nan)
            slots.spec.fill(np.nan)
            return slots

        for mod in (fields, dynamics, thermo_audit):
            monkeypatch.setattr(mod, "new_slots", poisoned)
        self.assert_same(clean, self.runs(tmp_path, "nan"))

        # the perturbation form: a decay run, whose integrate makes the
        # buffers, and single steps given them, which then hold no NaN
        clean_decay = self.decay_series()
        real_pert = dynamics.new_perturbation_slots
        given = []

        def poisoned_pert(grid):
            bufs = real_pert(grid)
            for buf in bufs:
                buf.fill(np.nan)
            given.append(bufs)
            return bufs

        monkeypatch.setattr(dynamics, "new_perturbation_slots", poisoned_pert)
        assert np.array_equal(clean_decay, self.decay_series())
        assert len(given) == 1
        steps = self.perturbation_steps(lambda: poisoned_pert(self.grid))
        assert np.array_equal(self.perturbation_steps(lambda: None), steps)
        assert len(given) == 4
        assert not any(np.isnan(buf).any() for bufs in given for buf in bufs)
