"""Registry behavior: gates, details, exact sabotages, coverage map."""

import json

import pytest

from qdw.classify import AbelianAnyonData
from qdw.cli import COMMAND_TABLE, COMMANDS, EXIT_INVARIANT, main
from qdw.groups import InvariantError, build_group
from qdw.verify import (
    CheckResult,
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
        validators = {name: c.validators for name, c in COMMAND_TABLE.items() if c.validators}
        assert set(validators) == set(COMMANDS) - {"verify-all"}
        for names in validators.values():
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


def _sabotaged_reroute(monkeypatch, edge_of):
    """path-deformation's reroute i0-i1-o1-o0 gets one more unit of phase on
    the edge `edge_of(lattice)`, and `logical_action` reports the honest
    reroute's action for it, so only the exact image comparison can see it.
    Every other string, and every other check, is left as it is."""
    import qdw.logical as logical

    real_string, real_action = logical.charge_string, logical.logical_action
    honest = {}

    def charge_string(ags, vertices, charge=1):
        op = real_string(ags, vertices, charge)
        if list(vertices) != ["i0", "i1", "o1", "o0"]:
            return op
        phase = list(op.phase)
        phase[edge_of(ags.lattice)] += 1
        bad = logical.StringOperator.make(op.n, op.shift, phase, op.offset)
        honest[bad] = op
        return bad

    def logical_action(ags, op):
        return real_action(ags, honest.get(op, op))

    monkeypatch.setattr(logical, "charge_string", charge_string)
    monkeypatch.setattr(logical, "logical_action", logical_action)


def _radial_edge(lat):
    """An edge on no rim: the ring's ground states differ on it."""
    rims = {e for r in lat.regions for e in r.rim_edges}
    return next(e for e in range(lat.n_edges) if e not in rims)


def _rim_edge(lat):
    """A rim edge, pinned to 0 in every admissible configuration."""
    return lat.region_by_name("inner").rim_edges[0]


class TestPathDeformationOracle:
    """path-deformation compares the rerouted images of every gauge orbit
    exactly, as configurations with root-of-unity exponents, apart from
    `logical_action`; no tolerance is read."""

    @pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:3"])
    def test_exact_images_pass_on_the_groups_whose_ring_fits(self, spec):
        res = run_check("path-deformation", build_group(spec))
        assert res == CheckResult("path-deformation", "pass",
                                  "3 homotopic reroutes act identically on the sectors")

    @pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:3"])
    def test_a_reroute_that_moves_a_ground_state_fails(self, monkeypatch, spec):
        _sabotaged_reroute(monkeypatch, _radial_edge)
        with pytest.raises(InvariantError, match="moved a ground state"):
            run_check("path-deformation", build_group(spec))

    def test_verify_group_collects_exactly_that_failure(self, monkeypatch):
        _sabotaged_reroute(monkeypatch, _radial_edge)
        results = verify_group(build_group("cyclic:3"))
        failed = [r for r in results if r.status == "fail"]
        assert failed == [CheckResult("path-deformation", "fail",
                                      "rerouted tunnel moved a ground state")]
        assert [r.status for r in results if r.name != "path-deformation"] == ["pass"] * 12

    def test_a_phase_off_every_admissible_configuration_passes(self, monkeypatch):
        """A rim edge is 0 on every admissible configuration, so one more unit
        of phase there acts as the identity on the ground space."""
        _sabotaged_reroute(monkeypatch, _rim_edge)
        assert run_check("path-deformation", build_group("cyclic:3")).status == "pass"

    def test_the_tolerance_argument_is_read_by_no_check(self):
        g = build_group("cyclic:3")
        for name in check_names():
            assert run_check(name, g, 1e-30) == run_check(name, g)


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


class TestExactModularData:
    """abelian-modular-data decides S from `s_phases` and the charge rows it
    is built from.  cyclic:9 is past the lattice and logical caps, so no
    other check reads them."""

    def _failed_verify_all(self, capsys):
        assert main(["verify-all", "--group", "cyclic:9"]) == EXIT_INVARIANT
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["failed"] == ["abelian-modular-data"]
        return next(c["detail"] for c in res["checks"] if c["name"] == "abelian-modular-data")

    def test_a_charge_row_that_is_no_homomorphism_fails(self, monkeypatch, capsys):
        real = AbelianAnyonData.charge_exponents.func

        def broken(self):
            # one of the n distinct rows, moved off a homomorphism at one
            # element in every sector that carries it
            chi, n = real(self), self.group.order
            bad = chi[1]
            return [[row[0], (row[1] + 1) % n, *row[2:]] if row == bad else row
                    for row in chi]

        monkeypatch.setattr(AbelianAnyonData, "charge_exponents", property(broken))
        assert self._failed_verify_all(capsys) == "sector S matrix is not unitary"

    def test_an_asymmetric_phase_fails(self, monkeypatch, capsys):
        real = AbelianAnyonData.s_phases.func

        def skewed(self):
            k = [list(row) for row in real(self)]
            k[1][2] = (k[1][2] + 1) % self.group.order
            return k

        monkeypatch.setattr(AbelianAnyonData, "s_phases", property(skewed))
        assert self._failed_verify_all(capsys) == "sector S matrix is not symmetric"
