"""Registry behavior: gates, details, tolerance threading, coverage map."""

import pytest

from qdw.cli import COMMANDS, VALIDATORS
from qdw.groups import InvariantError, build_group
from qdw.verify import (
    DEFAULT_TOLERANCE,
    check_names,
    run_check,
    verify_group,
)

ALL_CHECKS = [
    "sector-census", "condensate-rules", "excitation-sum-rule",
    "defect-sum-rule", "strip-route-agreement", "conjugation-invariance",
    "automorphism-equivariance", "abelian-modular-data", "lattice-audit",
    "gsd-census", "hole-qudit", "charge-readout", "path-deformation",
]


class TestRegistry:
    def test_names_are_stable(self):
        assert check_names() == ALL_CHECKS

    def test_unknown_name_rejected(self):
        g = build_group("cyclic:2")
        with pytest.raises(ValueError, match="unknown check"):
            run_check("no-such-check", g)

    def test_every_command_with_numbers_names_its_validators(self):
        covered = set(VALIDATORS)
        assert covered == set(COMMANDS) - {"verify-all"}
        for names in VALIDATORS.values():
            assert names and all(isinstance(n, str) for n in names)


class TestGates:
    def test_small_cyclic_group_runs_everything(self):
        results = verify_group(build_group("cyclic:2"))
        assert [r.name for r in results] == ALL_CHECKS
        assert all(r.status == "pass" for r in results)
        assert all(r.detail for r in results)

    def test_nonabelian_group_skips_abelian_only_checks(self):
        results = {r.name: r for r in verify_group(build_group("symmetric:3"))}
        assert results["abelian-modular-data"].status == "skip"
        assert results["hole-qudit"].status == "skip"
        assert "cyclic" in results["hole-qudit"].detail
        assert results["lattice-audit"].status == "pass"
        assert not [r for r in results.values() if r.status == "fail"]

    def test_large_group_skips_lattice_scale_checks(self):
        results = {r.name: r for r in verify_group(build_group("cyclic:12"))}
        assert results["lattice-audit"].status == "skip"
        assert "cap" in results["lattice-audit"].detail
        assert results["gsd-census"].status == "skip"
        assert results["hole-qudit"].status == "skip"
        assert results["sector-census"].status == "pass"
        assert results["strip-route-agreement"].status == "pass"

    def test_single_check_can_run_alone(self):
        g = build_group("cyclic:3")
        res = run_check("gsd-census", g)
        assert res.status == "pass"
        assert "9" in res.detail


def _noisy_apply(monkeypatch):
    """Each materialized string image comes out 1e-20 further off than the last."""
    from qdw.logical import StringOperator

    real = StringOperator.apply
    calls = []

    def apply(self, states):
        calls.append(self)
        return real(self, states) + 1e-20 * len(calls)

    monkeypatch.setattr(StringOperator, "apply", apply)


class TestToleranceThreading:
    """hole-qudit and charge-readout are exact; the tolerance reaches the float
    comparison of path-deformation's materialized oracle."""

    def test_impossible_tolerance_trips_the_float_checks(self, monkeypatch):
        g = build_group("cyclic:3")
        for name in ("hole-qudit", "charge-readout", "path-deformation"):
            assert run_check(name, g, 1e-30).status == "pass"
        _noisy_apply(monkeypatch)
        assert run_check("path-deformation", g, DEFAULT_TOLERANCE).status == "pass"
        with pytest.raises(InvariantError, match="moved a ground state"):
            run_check("path-deformation", g, 1e-30)

    def test_verify_group_collects_instead_of_raising(self, monkeypatch):
        _noisy_apply(monkeypatch)
        results = verify_group(build_group("cyclic:3"), 1e-30)
        failed = [r.name for r in results if r.status == "fail"]
        assert failed == ["path-deformation"]
        passed = [r.name for r in results if r.status == "pass"]
        assert "sector-census" in passed
        assert "hole-qudit" in passed


class TestExactLogicalChecks:
    """hole-qudit and charge-readout decide their facts in integers."""

    def test_a_broken_weyl_phase_fails_hole_qudit(self, monkeypatch):
        import qdw.logical as logical

        real = logical.logical_algebra

        def squared_z(ags, tunnel, loop):
            # Z |c> = w^(2c) |c>, so XZ = w^2 ZX
            qud = real(ags, tunnel, loop)
            z = qud.z_action
            qud.z_action = logical.LogicalAction(z.n, z.perm,
                                                 tuple(2 * p % z.n for p in z.phase_exp))
            return qud

        monkeypatch.setattr(logical, "logical_algebra", squared_z)
        with pytest.raises(InvariantError, match="Weyl commutation phase is off"):
            run_check("hole-qudit", build_group("cyclic:3"))

    def test_a_lost_projector_fails_charge_readout(self, monkeypatch):
        import qdw.logical as logical

        real = logical.charge_projectors

        def drop_one(qudit, region):
            fam = real(qudit, region)
            k = fam.labels.index(next(iter(fam.selected)))
            fam.projectors[k] = logical.FrameProjector((0,) * qudit.d)
            return fam

        monkeypatch.setattr(logical, "charge_projectors", drop_one)
        with pytest.raises(InvariantError, match="does not resolve the identity"):
            run_check("charge-readout", build_group("cyclic:3"))

    @pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5"])
    def test_details_are_unchanged(self, spec):
        n = int(spec.split(":")[1])
        g = build_group(spec)
        assert run_check("hole-qudit", g).detail == \
            f"rough-rim ring carries one exact {n}-state Weyl pair"
        assert run_check("charge-readout", g).detail == \
            f"{n * n} projectors resolve the identity; {n} select single frame states"
