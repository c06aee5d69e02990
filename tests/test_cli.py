"""End-to-end runner tests: flags, formats, exit codes, report shapes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdw
from qdw.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    main,
    parse_lattice,
    parse_subgroup,
)
from qdw.groups import build_group


def run_json(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_OK, captured.err
    return json.loads(captured.out)


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(command="gsd", group="cyclic:2", lattice="torus:2x2",
                        format="csv", tolerance=1e-8)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        data = RunConfig(command="anyons", group="cyclic:2").to_dict()
        data["frobs"] = 7
        with pytest.raises(UsageError, match="frobs"):
            RunConfig.from_dict(data)

    def test_bad_values_rejected(self):
        with pytest.raises(UsageError, match="command"):
            RunConfig.from_dict({"command": "nope"})
        with pytest.raises(UsageError, match="format"):
            RunConfig.from_dict({"command": "anyons", "format": "xml"})
        with pytest.raises(UsageError, match="threads"):
            RunConfig.from_dict({"command": "anyons", "threads": 0})
        with pytest.raises(UsageError, match="tolerance"):
            RunConfig.from_dict({"command": "anyons", "tolerance": -1.0})

    def test_config_echoed_in_report(self, capsys):
        out = run_json(capsys, ["anyons", "--group", "cyclic:2"])
        assert out["config"]["group"] == "cyclic:2"
        assert out["config"]["command"] == "anyons"
        assert out["command"] == "anyons"


class TestSpecParsers:
    def test_subgroup_presets(self):
        g = build_group("symmetric:3")
        assert parse_subgroup(g, "trivial").order == 1
        assert parse_subgroup(g, "full").order == 6
        assert parse_subgroup(g, "cyclic:(123)").order == 3

    def test_element_list(self):
        g = build_group("symmetric:3")
        sub = parse_subgroup(g, "e,(12)")
        assert sub.order == 2

    def test_commas_inside_parens_survive(self):
        g = build_group("product:cyclic:2,cyclic:2")
        sub = parse_subgroup(g, "(0,0),(1,1)")
        assert sub.order == 2
        assert parse_subgroup(g, "cyclic:(1,0)").order == 2

    def test_bad_subgroup_spec(self):
        g = build_group("cyclic:4")
        with pytest.raises(UsageError, match="nope"):
            parse_subgroup(g, "nope")
        with pytest.raises(UsageError, match="empty"):
            parse_subgroup(g, "  ")

    def test_lattice_presets(self):
        lat, subs = parse_lattice("torus:2x3")
        assert lat.kind == "torus" and subs == {}
        assert parse_lattice("patch:2x2")[0].kind == "patch"
        assert parse_lattice("ring:4")[0].kind == "ring"

    def test_lattice_json_with_hole_and_subgroups(self):
        spec = json.dumps({
            "kind": "patch", "rows": 3, "cols": 3,
            "holes": [{"name": "hole0", "faces": ["p(1,1)"]}],
            "subgroups": {"outer": "full", "hole0": "trivial"},
        })
        lat, subs = parse_lattice(spec)
        assert [r.name for r in lat.regions] == ["outer", "hole0"]
        assert subs == {"outer": "full", "hole0": "trivial"}

    def test_lattice_unknown_fields_rejected(self):
        with pytest.raises(UsageError, match="glue"):
            parse_lattice('{"kind": "ring", "cols": 3, "glue": 1}')
        with pytest.raises(UsageError, match="bad lattice"):
            parse_lattice("moebius:2x2")
        with pytest.raises(UsageError, match="kind"):
            parse_lattice('{"kind": "prism", "rows": 2, "cols": 2}')

    def test_lattice_sizes_are_checked(self):
        with pytest.raises(UsageError, match="20200 edges, over the cap"):
            parse_lattice("torus:101x100")
        with pytest.raises(UsageError, match=r"must be integers, got \[2.9, 2\]"):
            parse_lattice('{"kind": "torus", "rows": 2.9, "cols": 2}')


class TestStableOutput:
    def test_json_bytes_identical_across_runs(self, capsys):
        argv = ["defects", "--group", "symmetric:3",
                "--subgroup", "e,(12)", "--subgroup2", "cyclic:(123)"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert "elapsed" not in first

    def test_timings_go_to_stderr(self, capsys):
        assert main(["anyons", "--group", "cyclic:2"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "elapsed" in captured.err
        json.loads(captured.out)


class TestWorkedExamples:
    def test_s3_condensate_for_a_reflection_pair(self, capsys):
        out = run_json(capsys, ["lagrangian", "--group", "symmetric:3",
                                "--subgroup", "e,(12)"])
        res = out["results"]
        assert res["multiplicities"] == [1, 0, 1, 1, 0, 0, 0, 0]
        assert [c["sector"] for c in res["condensed"]] == \
            ["C0-pi0", "C0-pi2", "C1-pi0"]
        assert res["weighted_dimension"] == 6

    def test_torus_count_for_the_smallest_group(self, capsys):
        out = run_json(capsys, ["gsd", "--group", "cyclic:2",
                                "--lattice", "torus:2x2"])
        assert out["results"]["dimension"] == 4
        assert out["results"]["by_method"] == {
            "counting": 4, "dense": 4, "modular": 4}

    def test_single_route_count_skips_route_agreement(self, capsys):
        # six one-face holes in an S4 patch: counting and dense are over
        # budget, so only the modular route runs
        faces = ["p(1,1)", "p(1,3)", "p(1,5)", "p(3,1)", "p(3,3)", "p(3,5)"]
        lattice = {"kind": "patch", "rows": 5, "cols": 7,
                   "holes": [{"name": f"hole{i}", "faces": [f]}
                             for i, f in enumerate(faces)],
                   "subgroups": {"outer": "full",
                                 **{f"hole{i}": "trivial" for i in range(6)}}}
        out = run_json(capsys, ["gsd", "--group", "symmetric:4",
                                "--lattice", json.dumps(lattice)])
        assert out["results"]["dimension"] == 24 ** 5
        assert out["results"]["by_method"] == {"modular": 24 ** 5}
        assert out["checks"] == [{"name": "gsd-route-agreement",
                                  "status": "skip"}]

    def test_trivial_group_has_one_sector(self, capsys):
        out = run_json(capsys, ["anyons", "--group", "cyclic:1"])
        res = out["results"]
        assert res["count"] == 1
        assert res["anyons"][0]["dim"] == 1
        assert res["anyons"][0]["twist"] == [1.0, 0.0]

    def test_every_numeric_report_names_its_checks(self, capsys):
        cases = [
            ["anyons", "--group", "cyclic:3"],
            ["qudit-dim", "--group", "cyclic:3",
             "--subgroup", "trivial", "--subgroup2", "trivial"],
            ["gsd", "--group", "cyclic:2", "--lattice", "torus:2x2"],
            ["logical", "--group", "cyclic:2", "--lattice", "ring:3"],
        ]
        for argv in cases:
            out = run_json(capsys, argv)
            assert out["checks"], argv
            assert all(c["status"] == "pass" for c in out["checks"])


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["frobnicate", "--group", "cyclic:2"],
        ["anyons"],
        ["lagrangian", "--group", "cyclic:4", "--subgroup", "nope"],
        ["lagrangian", "--group", "cyclic:4"],
        ["gsd", "--group", "cyclic:2", "--lattice", "moebius:2"],
        ["gsd", "--group", "cyclic:2", "--lattice", "ring:3"],
        ["logical", "--group", "cyclic:2", "--lattice", "ring:3",
         "--format", "csv"],
        ["anyons", "--group", "cyclic:2", "--threads", "0"],
        ["group-info", "--group", '{"table": null}'],
        ["group-info", "--group", '{"table": [0], "order": null}'],
        ["group-info", "--group", '{"table": [0], "names": 5}'],
        ["group-info", "--group", '{"table": [0, 1, 1, 0.9]}'],
        ["group-info", "--group", '{"table": [0, 1, 1, 0], "names": [1, 2]}'],
        ["group-info", "--group", '{"table": [0], "order": 1e400}'],
        ["group-info", "--group", '{"table": [0, 1, 1, 99999999999999999999999]}'],
        ["gsd", "--group", "cyclic:2", "--lattice",
         '{"kind": "torus", "rows": 2.9, "cols": 2}'],
        ["gsd", "--group", "cyclic:2", "--lattice",
         '{"kind": "patch", "rows": 3, "cols": 3, "holes": [{"name": "h", "faces": [4.0]}], '
         '"subgroups": {"outer": "full", "h": "trivial"}}'],
        ["lattice-audit", "--group", "cyclic:3", "--lattice", "ring:3",
         "--subgroup", "trivial", "--subgroup2", "full",
         "--inject-literal-edge", "in0"],
    ])
    def test_usage_errors(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err

    def test_sabotaged_audit_fails_with_named_check(self, capsys):
        rc = main(["lattice-audit", "--group", "cyclic:2",
                   "--lattice", "patch:2x2", "--subgroup", "full",
                   "--inject-literal-edge", "h(0,0)"])
        captured = capsys.readouterr()
        assert rc == EXIT_INVARIANT
        out = json.loads(captured.out)
        assert out["results"]["ok"] is False
        failed = [c["name"] for c in out["checks"] if c["status"] == "fail"]
        assert "pairwise-commutation" in failed

    def test_sabotaged_ring_audit_names_the_failing_pair(self, capsys):
        rc = main(["lattice-audit", "--group", "cyclic:3", "--lattice", "ring:3",
                   "--subgroup", "full", "--subgroup2", "trivial",
                   "--inject-literal-edge", "in0"])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_INVARIANT
        assert out["results"]["failures"] == [
            "pair [B(f0), L(in0)] != 0 (|.|_F = 3.4641)"]

    def test_clean_audit_passes(self, capsys):
        out = run_json(capsys, ["lattice-audit", "--group", "cyclic:2",
                                "--lattice", "patch:2x2", "--subgroup", "full"])
        assert out["results"]["ok"] is True
        assert out["results"]["failures"] == []


class TestLogicalReport:
    def test_report_shape(self, capsys):
        out = run_json(capsys, ["logical", "--group", "cyclic:3",
                                "--lattice", "ring:3"])
        res = out["results"]
        assert res["encoding"] == {"group": "cyclic:3", "d": 3,
                                   "holes": ["inner", "outer"]}
        names = [op["name"] for op in res["operators"]]
        assert names == ["X", "Z"]
        for op in res["operators"]:
            assert len(op["matrix"]) == 9
            assert all(len(pair) == 2 for pair in op["matrix"])

    def test_matrices_obey_the_reported_relation(self, capsys):
        out = run_json(capsys, ["logical", "--group", "cyclic:3",
                                "--lattice", "ring:3"])
        res = out["results"]
        d = res["encoding"]["d"]
        mats = {}
        for op in res["operators"]:
            flat = np.array([a + 1j * b for a, b in op["matrix"]])
            mats[op["name"]] = flat.reshape(d, d)
        xz = res["relations"][0]
        assert (xz["lhs"], xz["rhs"]) == ("X.Z", "Z.X")
        phase = xz["phase"][0] + 1j * xz["phase"][1]
        assert xz["turns"] == "1/3"
        lhs = mats["X"] @ mats["Z"]
        rhs = phase * (mats["Z"] @ mats["X"])
        assert np.abs(lhs - rhs).max() < 1e-10
        for name in ("X", "Z"):
            assert np.abs(np.linalg.matrix_power(mats[name], d)
                          - np.eye(d)).max() < 1e-10

    def test_z_is_diagonal_in_the_report_basis(self, capsys):
        out = run_json(capsys, ["logical", "--group", "cyclic:4",
                                "--lattice", "ring:4"])
        res = out["results"]
        d = res["encoding"]["d"]
        z = np.array([a + 1j * b for a, b in res["operators"][1]["matrix"]])
        z = z.reshape(d, d)
        expected = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        assert np.abs(z - expected).max() < 1e-10


class TestChargeProjectReport:
    def test_family_shape_and_selection(self, capsys):
        out = run_json(capsys, ["charge-project", "--group", "cyclic:3",
                                "--lattice", "ring:3"])
        res = out["results"]
        d = res["encoding"]["d"]
        assert len(res["labels"]) == d * d
        assert len(res["projectors"]) == d * d
        assert len(res["selected"]) == d
        assert all(lab[0] == 0 for lab in
                   (entry["label"] for entry in res["selected"]))
        total = np.zeros((d, d), dtype=complex)
        for proj in res["projectors"]:
            flat = np.array([a + 1j * b for a, b in proj["matrix"]])
            total += flat.reshape(d, d)
        assert np.abs(total - np.eye(d)).max() < 1e-10


class TestVerifyAll:
    def test_small_cyclic_group_is_clean(self, capsys):
        out = run_json(capsys, ["verify-all", "--group", "cyclic:3"])
        res = out["results"]
        assert res["failed"] == []
        statuses = {c["name"]: c["status"] for c in res["checks"]}
        assert statuses["sector-census"] == "pass"
        assert statuses["gsd-census"] == "pass"
        assert statuses["hole-qudit"] == "pass"
        assert statuses["path-deformation"] == "pass"

    def test_nonabelian_group_skips_gated_checks(self, capsys):
        out = run_json(capsys, ["verify-all", "--group", "symmetric:3"])
        res = out["results"]
        assert res["failed"] == []
        statuses = {c["name"]: c["status"] for c in res["checks"]}
        assert statuses["abelian-modular-data"] == "skip"
        assert statuses["condensate-rules"] == "pass"


class TestFormatsAndSinks:
    def test_csv_has_flat_rows(self, capsys):
        assert main(["anyons", "--group", "cyclic:2",
                     "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,flux_class,irrep,dim,twist_re,twist_im"
        assert len(lines) == 5
        assert lines[1].startswith("C0-pi0,")

    def test_csv_lagrangian(self, capsys):
        assert main(["lagrangian", "--group", "cyclic:2",
                     "--subgroup", "trivial", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sector,multiplicity,dim"
        assert len(lines) == 5

    def test_pretty_table_shows_checks_and_timing(self, capsys):
        assert main(["qudit-dim", "--group", "cyclic:3",
                     "--subgroup", "trivial", "--subgroup2", "trivial",
                     "--format", "pretty-table"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "dimension" in text
        assert "strip-route-agreement" in text
        assert "elapsed" in text

    def test_out_writes_file_and_keeps_stdout_quiet(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["anyons", "--group", "cyclic:2",
                     "--out", str(target)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ""
        data = json.loads(target.read_text())
        assert data["results"]["count"] == 4

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        assert main(["anyons", "--group", "cyclic:2",
                     "--out", str(target)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")
        assert "Traceback" not in captured.err


class TestRegionAssignment:
    def test_flags_fill_regions_in_lattice_order(self, capsys):
        out = run_json(capsys, ["gsd", "--group", "cyclic:3",
                                "--lattice", "ring:3",
                                "--subgroup", "trivial",
                                "--subgroup2", "full"])
        regions = out["results"]["regions"]
        assert regions["inner"] == ["0"]
        assert sorted(regions["outer"]) == ["0", "1", "2"]

    def test_json_map_wins_over_flags(self, capsys):
        spec = json.dumps({"kind": "ring", "cols": 3,
                           "subgroups": {"inner": "full"}})
        out = run_json(capsys, ["gsd", "--group", "cyclic:2",
                                "--lattice", spec,
                                "--subgroup", "trivial"])
        regions = out["results"]["regions"]
        assert sorted(regions["inner"]) == ["0", "1"]
        assert regions["outer"] == ["0"]

    def test_too_many_flags_rejected(self, capsys):
        rc = main(["gsd", "--group", "cyclic:2", "--lattice", "torus:2x2",
                   "--subgroup", "trivial"])
        assert rc == EXIT_USAGE
        assert "unassigned" in capsys.readouterr().err

    def test_hole_commands_default_open_regions_to_trivial(self, capsys):
        out = run_json(capsys, ["logical", "--group", "cyclic:2",
                                "--lattice", "ring:3"])
        assert out["results"]["encoding"]["holes"] == ["inner", "outer"]

    def test_unknown_region_in_json_map(self, capsys):
        spec = json.dumps({"kind": "ring", "cols": 3,
                           "subgroups": {"attic": "full"}})
        rc = main(["gsd", "--group", "cyclic:2", "--lattice", spec,
                   "--subgroup", "trivial", "--subgroup2", "trivial"])
        assert rc == EXIT_USAGE
        assert "attic" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    """The CLI imports numpy only; scipy would add its import to every run."""
    env = dict(os.environ, PYTHONPATH=str(Path(qdw.__file__).resolve().parents[1]))
    code = ("import sys, qdw.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"
