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


class TestToleranceThreading:
    def test_impossible_tolerance_trips_the_float_checks(self):
        g = build_group("cyclic:3")
        assert run_check("hole-qudit", g, DEFAULT_TOLERANCE).status == "pass"
        with pytest.raises(InvariantError):
            run_check("hole-qudit", g, 1e-30)

    def test_verify_group_collects_instead_of_raising(self):
        results = verify_group(build_group("cyclic:3"), 1e-30)
        failed = [r.name for r in results if r.status == "fail"]
        assert "hole-qudit" in failed
        passed = [r.name for r in results if r.status == "pass"]
        assert "sector-census" in passed
