"""End-to-end runner tests: flags, formats, exit codes, report shapes."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdw
from qdw.cli import (
    COMMANDS,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    main,
    parse_argv,
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

    def test_to_dict_lists_every_field_in_order(self):
        assert list(RunConfig("anyons").to_dict()) == [
            "command", "group", "subgroup", "subgroup2", "lattice", "format", "tolerance",
            "out", "inject_literal_edge"]
        assert RunConfig.from_dict({"command": "anyons"}) == RunConfig("anyons")

    def test_unknown_field_rejected(self):
        data = RunConfig(command="anyons", group="cyclic:2").to_dict()
        data["frobs"] = 7
        with pytest.raises(UsageError, match="frobs"):
            RunConfig.from_dict(data)
        data["alpha"] = 1
        with pytest.raises(UsageError) as info:
            RunConfig.from_dict(data)
        assert str(info.value) == "unknown config fields: alpha, frobs"

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
        # seven one-face holes in an S4 patch: counting and dense are over
        # budget, so only the modular route runs
        faces = ["p(1,1)", "p(1,3)", "p(1,5)", "p(1,7)", "p(3,1)", "p(3,3)", "p(3,5)"]
        lattice = {"kind": "patch", "rows": 5, "cols": 9,
                   "holes": [{"name": f"hole{i}", "faces": [f]}
                             for i, f in enumerate(faces)],
                   "subgroups": {"outer": "full",
                                 **{f"hole{i}": "trivial" for i in range(7)}}}
        out = run_json(capsys, ["gsd", "--group", "symmetric:4",
                                "--lattice", json.dumps(lattice)])
        assert out["results"]["dimension"] == 24 ** 6
        assert out["results"]["by_method"] == {"modular": 24 ** 6}
        assert out["checks"] == [{"name": "gsd-route-agreement",
                                  "status": "skip"}]

    def test_c3_rims_count_within_three_gigabytes(self):
        # C6 patch:5x8 with two one-face holes and C3 = <2> on every rim: the
        # counting slice once grew by 3 per rim vertex entered from the bulk,
        # and the run died of MemoryError near 2.8 GB
        import resource

        lattice = {"kind": "patch", "rows": 5, "cols": 8,
                   "holes": [{"name": "hole0", "faces": ["p(1,1)"]},
                             {"name": "hole1", "faces": ["p(1,4)"]}],
                   "subgroups": {name: "cyclic:2" for name in ("outer", "hole0", "hole1")}}
        cap = 3 * 1024 ** 3
        env = dict(os.environ, PYTHONPATH=str(Path(qdw.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "qdw.cli", "gsd", "--group", "cyclic:6",
             "--lattice", json.dumps(lattice)],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == EXIT_OK, proc.stderr
        res = json.loads(proc.stdout)["results"]
        assert res["regions"] == {name: ["0", "2", "4"] for name in ("outer", "hole0", "hole1")}
        assert res["by_method"] == {"counting": 36, "modular": 36}

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

    @pytest.mark.parametrize("holes", [
        '{"name": "h", "faces": ["p(1,1)"]}',
        '["p(1,1)"]',
        '[5]',
    ], ids=["object", "list-of-names", "list-of-ints"])
    def test_holes_must_be_a_list_of_objects(self, capsys, holes):
        spec = f'{{"kind": "patch", "rows": 3, "cols": 3, "holes": {holes}}}'
        with pytest.raises(UsageError, match="^lattice 'holes' must be a list of objects"):
            parse_lattice(spec)
        assert main(["gsd", "--group", "cyclic:2", "--lattice", spec]) == EXIT_USAGE
        assert "'holes' must be a list of objects" in capsys.readouterr().err

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

    def test_sabotaged_audit_fails_each_check_it_breaks(self, capsys):
        # the literal term is hermitian but not idempotent, and fails to commute
        rc = main(["lattice-audit", "--group", "symmetric:3", "--subgroup", "e,(23)",
                   "--subgroup2", "e", "--lattice", "ring:3", "--inject-literal-edge", "in1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == EXIT_INVARIANT
        assert out["checks"] == [{"name": "term-projector", "status": "fail"},
                                 {"name": "term-hermitian", "status": "pass"},
                                 {"name": "pairwise-commutation", "status": "fail"}]

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


class TestParser:
    """Every command shares one set of flags; lattice-audit adds one."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_the_shared_flags_in_order(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, flags=re.M)
        extra = ["--inject-literal-edge"] if command == "lattice-audit" else []
        assert listed == ["--group", "--subgroup", "--subgroup2", "--lattice", "--format",
                          "--tolerance", "--out"] + extra

    @pytest.mark.parametrize("command", COMMANDS)
    def test_only_lattice_audit_takes_inject_literal_edge(self, command, capsys):
        argv = [command, "--group", "cyclic:2", "--inject-literal-edge", "in0"]
        if command == "lattice-audit":
            assert parse_argv(argv).inject_literal_edge == "in0"
        else:
            assert main(argv) == EXIT_USAGE
            assert "unrecognized arguments: --inject-literal-edge in0" in \
                capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# start-up: the modules each run loads, and the names read lazily

REPO = Path(__file__).resolve().parents[1]


def _loaded_after(statement: str) -> list[str]:
    """Modules a fresh interpreter holds after running `statement`."""
    env = dict(os.environ, PYTHONPATH=str(Path(qdw.__file__).resolve().parents[1]))
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    """scipy would add its import to every run."""
    loaded = _loaded_after("import qdw.cli")
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


CENSUS = {"qdw.classify"}
TWO_HOLE_PATCH = ('{"kind":"patch","rows":4,"cols":6,"holes":['
                  '{"name":"hole0","faces":["p(1,2)"]},{"name":"hole1","faces":["p(1,4)"]}],'
                  '"subgroups":{"outer":"full"}}')
S3_PAIR = ["--group", "symmetric:3", "--subgroup", "e,(12)", "--subgroup2", "full"]
# stdlib modules that generate or inspect code: each adds milliseconds to every
# start-up.  numpy imports `inspect` itself, so only a run without numpy is free of it.
CODEGEN_MODULES = {"dataclasses", "inspect"}


def test_roots_of_unity_render_correctly_rounded():
    """Every zeta_n^k with n <= 48 prints as its 50-digit value rounded to 12 places."""
    mpmath = pytest.importorskip("mpmath")
    from decimal import ROUND_HALF_EVEN, Decimal

    from qdw.cli import _complex_pair
    from qdw.groups import _root_of_unity

    def rounded(x):
        text = mpmath.nstr(x, 50, strip_zeros=False, min_fixed=-100, max_fixed=100)
        return float(Decimal(text).quantize(Decimal("1e-12"), rounding=ROUND_HALF_EVEN)) + 0.0

    with mpmath.workdps(50):
        for n in range(1, 49):
            for k in range(n):
                angle = 2 * mpmath.pi * k / n
                want = [rounded(mpmath.cos(angle)), rounded(mpmath.sin(angle))]
                assert _complex_pair(_root_of_unity(k, n)) == want, (k, n)


@pytest.mark.parametrize("argv,loads,numpy", [
    (None, set(), False),
    (["group-info", "--group", "dihedral:5"], set(), False),
    (["anyons", "--group", "dihedral:5"], CENSUS, False),
    (["subgroups", "--group", "symmetric:3"], CENSUS, False),
    (["lagrangian", "--group", "cyclic:4", "--subgroup", "full"], CENSUS, False),
    (["excitations", "--group", "symmetric:3", "--subgroup", "e,(12)"], CENSUS, False),
    (["defects"] + S3_PAIR, CENSUS, False),
    (["qudit-dim"] + S3_PAIR, CENSUS, False),
    (["verify-all", "--group", "symmetric:4"], {"qdw.classify", "qdw.verify"}, False),
    (["verify-all", "--group", "cyclic:9"], {"qdw.classify", "qdw.verify"}, True),
    (["lattice-audit", "--group", "cyclic:2", "--lattice", "ring:3",
      "--subgroup", "full", "--subgroup2", "trivial"], {"qdw.geometry", "qdw.lattice"}, False),
    (["gsd", "--group", "cyclic:2", "--lattice", "torus:2x2"],
     {"qdw.geometry", "qdw.lattice", "qdw.classify"}, True),
    (["gsd", "--group", "cyclic:2", "--lattice", "torus:3x3"],
     {"qdw.geometry", "qdw.lattice", "qdw.classify"}, False),
    (["logical", "--group", "cyclic:3", "--lattice", "ring:3"],
     {"qdw.geometry", "qdw.logical"}, False),
    (["charge-project", "--group", "cyclic:3", "--lattice", "ring:3"],
     {"qdw.geometry", "qdw.classify", "qdw.logical"}, False),
    (["charge-project", "--group", "cyclic:5", "--lattice", TWO_HOLE_PATCH],
     {"qdw.geometry", "qdw.classify", "qdw.logical"}, False),
    (["lattice-audit", "--group", "cyclic:3", "--lattice", "ring:3", "--subgroup", "full",
      "--subgroup2", "trivial", "--inject-literal-edge", "in0"],
     {"qdw.geometry", "qdw.lattice"}, False),
], ids=["import", "group-info", "anyons", "subgroups", "lagrangian", "excitations",
        "defects", "qudit-dim", "verify-all", "verify-all-cyclic9", "lattice-audit",
        "gsd", "gsd-no-dense", "logical", "charge-project", "charge-project-patch",
        "lattice-audit-sabotaged"])
def test_each_run_loads_only_the_layers_it_reaches(argv, loads, numpy):
    """The census, the audit, the counting and modular ground-state routes
    and the logical layer run on Python integers; numpy loads only where
    matrices are."""
    statement = "import qdw.cli"
    if argv is not None:
        rc = 1 if "--inject-literal-edge" in argv else 0
        statement += f"\nassert qdw.cli.main({argv!r}) == {rc}"
    modules = _loaded_after(statement)
    loaded = {m for m in modules if m.startswith("qdw")}
    assert loaded == {"qdw", "qdw.groups", "qdw.records", "qdw.cli"} | loads
    assert ("numpy" in modules) == numpy
    assert "dataclasses" not in modules
    assert "inspect" not in modules or numpy


def test_no_qdw_module_loads_dataclasses_or_inspect():
    """Records are plain classes, so no layer pays for code generation at import."""
    package = Path(qdw.__file__).parent
    names = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert names == sorted(qdw._SUBMODULES)
    modules = set(_loaded_after("\n".join(f"import qdw.{name}" for name in names)))
    assert {f"qdw.{name}" for name in names} <= modules
    assert not CODEGEN_MODULES & modules
    assert "numpy" not in modules
    for path in package.glob("*.py"):
        assert "dataclasses" not in path.read_text(encoding="utf-8"), path.name


def test_import_qdw_loads_no_layer_until_a_name_is_read():
    statement = ("import qdw\n"
                 "bare = sorted(m for m in sys.modules if m.startswith('qdw.'))\n"
                 "assert bare == [], bare\n"
                 "assert qdw.lattice is sys.modules['qdw.lattice']\n"
                 "assert 'qdw.logical' not in sys.modules\n"
                 "assert qdw.tunnel_operator is sys.modules['qdw.logical'].tunnel_operator")
    assert "qdw.logical" in _loaded_after(statement)


def _home_object(obj, name: str):
    return getattr(sys.modules[obj.__module__], name)


def test_every_package_export_is_the_defining_module_object():
    names = [n for n in qdw.__all__ if n != "__version__"]
    assert {"Lattice", "AbelianGroundSpace", "build_terms", "verify_group"} <= set(names)
    for name in names:
        obj = getattr(qdw, name)
        assert obj.__module__.startswith("qdw.")
        assert _home_object(obj, name) is obj, name
    assert set(qdw.__all__) <= set(dir(qdw))
    assert {"cli", "lattice", "logical"} <= set(dir(qdw))


def test_unknown_attributes_raise_naming_the_attribute():
    import qdw.cli as cli
    for module in (qdw, cli):
        with pytest.raises(AttributeError, match="no_such_layer_name"):
            module.no_such_layer_name


def test_every_layer_name_the_tracer_reads_off_the_cli_is_the_library_object():
    """The benchmark's traced handlers call the layers through `qdw.cli`."""
    import qdw.cli as cli
    import qdw.lattice
    import qdw.logical
    tree = ast.parse((REPO / "bench" / "tracing.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "cli"}
    assert {"build_terms", "audit_commutation", "tunnel_operator",
            "charge_projectors", "anyon_table"} <= names
    for name in names:
        obj = getattr(cli, name)
        assert _home_object(obj, name) is obj, name
    assert cli.build_terms is qdw.lattice.build_terms
    assert cli.charge_projectors is qdw.logical.charge_projectors
