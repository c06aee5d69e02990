"""Byte-stable reports: the sha256 of stdout for a fixed set of cheap commands.

Every command here prints only integers, names and fixed-format text, so
its JSON is identical on every machine.  A changed digest means a changed
report, which has to be deliberate.
"""

import hashlib
import json

import pytest

from qdw.cli import EXIT_INVARIANT, EXIT_OK, main

# the README's two-hole patch, written without spaces so a command splits on them
README_PATCH = ('{"kind":"patch","rows":3,"cols":5,"holes":['
                '{"name":"hole0","faces":["p(1,1)"]},{"name":"hole1","faces":["p(1,3)"]}],'
                '"subgroups":{"outer":"full"}}')
# a 5x8 two-hole patch: 93 edges, so a composite n meets a wide sector quotient
WIDE_PATCH = ('{"kind":"patch","rows":5,"cols":8,"holes":['
              '{"name":"hole0","faces":["p(1,1)"]},{"name":"hole1","faces":["p(1,4)"]}],'
              '"subgroups":{"outer":"full"}}')
# two patches of the algebra benchmark workload, with its seed-21 hole placements:
# 136 edges for C2, and the 4x6 patch where C7 builds 49 transports
BENCH_PATCH_6X10 = ('{"kind":"patch","rows":6,"cols":10,"holes":['
                    '{"name":"hole0","faces":["p(1,1)"]},{"name":"hole1","faces":["p(1,3)"]}],'
                    '"subgroups":{"outer":"full"}}')
BENCH_PATCH_4X6 = ('{"kind":"patch","rows":4,"cols":6,"holes":['
                   '{"name":"hole0","faces":["p(1,2)"]},{"name":"hole1","faces":["p(1,4)"]}],'
                   '"subgroups":{"outer":"full"}}')
# a 7x13 patch with twelve trivial one-face holes in a full outer rim: for
# S4 its count 24**11 is above 2**53, where a float sum can round wrongly
TWELVE_HOLE_PATCH = json.dumps({
    "kind": "patch", "rows": 7, "cols": 13,
    "holes": [{"name": f"hole{i}", "faces": [f"p({r},{c})"]}
              for i, (r, c) in enumerate((r, c) for r in (1, 3) for c in range(1, 12, 2))],
    "subgroups": {"outer": "full", **{f"hole{i}": "trivial" for i in range(12)}},
}, separators=(",", ":"))

# command line -> (exit status, sha256 of stdout)
GOLDEN = {
    "gsd --group cyclic:2 --lattice torus:2x2":
        (EXIT_OK, "7b35fc682c76a5a862a5ec76412aa6e16920b706f51d2717d9fc522f81297153"),
    # the dense route on pinned rims: both regions of a ring, and a patch's one
    "gsd --group cyclic:3 --lattice ring:3 --subgroup full --subgroup2 full":
        (EXIT_OK, "24b93abf0ca7431009831a55738d0f0015870c45bb77a03d6593b28f3a34e82f"),
    "gsd --group cyclic:2 --lattice patch:2x2 --subgroup full":
        (EXIT_OK, "139b368b3b5c11c6b2fa19e163b569984ad7d19c7f0a1a8d580d4516dcb28f68"),
    # counting and modular agree; dense is over budget
    "gsd --group symmetric:3 --lattice torus:3x3":
        (EXIT_OK, "214ce20249ef80cf6e8c31040a6f30a85d95db7c9826362a46e4ac46989f3708"),
    "subgroups --group dihedral:4":
        (EXIT_OK, "b3715952ff6c8af1e10f9a933d90b17359cf3e5d7ed86e735fcd68f0316a272f"),
    "qudit-dim --group dihedral:4 --subgroup trivial --subgroup2 trivial":
        (EXIT_OK, "25d00af9b6f126e2ac6c501b6db64a4460d23802cfd547068d66e84e4767b1e9"),
    "lagrangian --group symmetric:3 --subgroup e,(12)":
        (EXIT_OK, "3e753563a16d38dae9d10718306ed12117b67fbd60a1f34c759f8eedf4c2bb49"),
    "verify-all --group cyclic:3":
        (EXIT_OK, "7e6ef9e01dd6d8ecf97face37fcd529b6c8d338b0d17fc47a2f7c748aff7db7d"),
    # every condensate, double-coset and strip path, over 30 subgroups
    "verify-all --group symmetric:4":
        (EXIT_OK, "15cb4f36d0fbca3724c6837cb93132cbe4506f305ac561aad0bbcdbea77d5783"),
    "lattice-audit --group cyclic:3 --lattice ring:3 --subgroup full "
    "--subgroup2 trivial --inject-literal-edge in0":
        (EXIT_INVARIANT,
         "8c0a60466ef21b6dc3ae3aab1a4a29380188dbbff8ef3154b40378f6099766e8"),
    # each prints the Frobenius norm of its one failing pair, [B(f0), L(in0)]
    "lattice-audit --group symmetric:3 --lattice ring:3 --subgroup full "
    "--subgroup2 trivial --inject-literal-edge in0":
        (EXIT_INVARIANT,
         "90744c02723e48a4d45f7974833f35561954ef6747a711bfcddff0888a3f20db"),
    "lattice-audit --group quaternion8 --lattice ring:3 --subgroup 1,-1 "
    "--subgroup2 1 --inject-literal-edge in0":
        (EXIT_INVARIANT,
         "b202d00dc6eee027c29537c8af7a5a96b59b352c0d31dbb01eccb7dc2190c309"),
    # the audit's permutation pre-test decides most pairs of these two;
    # both digests were taken with every pair expanded into atoms
    "lattice-audit --group symmetric:3 --lattice torus:2x2":
        (EXIT_OK, "7debc0349b3256370f4b43fffea225dd031d60070d56c4e947e3080da6320dcd"),
    "lattice-audit --group quaternion8 --lattice ring:3 --subgroup 1,-1 --subgroup2 1":
        (EXIT_OK, "d8092834a5a785bd9ce77a82c53907a9b6e87cf852c27c14f1a5565cd9252c52"),
    # logical reports print complex matrix entries; every phase in these is
    # +-1 or +-i (and every trace 0 or 1), so the 12-digit rounding gives
    # the same decimals on every IEEE machine
    "logical --group cyclic:4 --lattice ring:3":
        (EXIT_OK, "d0264831f34c5d0796ce1b764bec65909e3f2de722ed78def7cefe7868efb5d5"),
    f"logical --group cyclic:2 --lattice {README_PATCH}":
        (EXIT_OK, "d30a6efa2b67b7c4164da025bd384b5256bbe87ad79438add65f94d93f52aa6d"),
    f"charge-project --group cyclic:2 --lattice {README_PATCH}":
        (EXIT_OK, "c0812e65cdc5e703a1d6d0596515db65373a6383e3b06bf7952303453a52203a"),
    f"logical --group cyclic:4 --lattice {WIDE_PATCH}":
        (EXIT_OK, "fc5b60546be1a04e65261dfa8384b1d574ce603d2649c35c70e1ac82df089d15"),
    f"charge-project --group cyclic:4 --lattice {WIDE_PATCH}":
        (EXIT_OK, "f03a1063b5b0da4e0415f6390be7552f4387e9bdccab8be0e82ed4f1fc1c2679"),
    # composite n = 6 on the 93-edge patch (47 free kernel coordinates); the
    # logical phases are sixth roots of unity, whose 12-digit decimals sit far
    # from a rounding edge, and every float charge-project prints is 0.0 or 1.0
    f"logical --group cyclic:6 --lattice {WIDE_PATCH}":
        (EXIT_OK, "111c9c3f55fce55113af140f3bd1bfd355b8a1b2c3c8d3fdc71d36c8dbf44d60"),
    f"charge-project --group cyclic:6 --lattice {WIDE_PATCH}":
        (EXIT_OK, "3361b289ea72c3917f41b0040da53a737335d9d05dbdc1b20abab862a5764b7c"),
    # projector traces go through the same rounding as every other float
    "charge-project --group cyclic:4 --lattice ring:3":
        (EXIT_OK, "30a943f12705de0a606ee28459a53f86cfe3416151cc8901b81c106148dc1153"),
    # every float the C7 report prints is 0.0 or 1.0
    f"logical --group cyclic:2 --lattice {BENCH_PATCH_6X10}":
        (EXIT_OK, "d8b3b5d155df273d972c3328a5640fb26b5694cbf51f732aeab255d99e2f6a27"),
    f"charge-project --group cyclic:7 --lattice {BENCH_PATCH_4X6}":
        (EXIT_OK, "cb68ccb8931f351f08dfb9f87c8225690abbfc133b18b4cec2d0d28edc17ad4c"),
    # only the modular route fits; see test_twelve_hole_count_is_exact
    f"gsd --group symmetric:4 --lattice {TWELVE_HOLE_PATCH}":
        (EXIT_OK, "93a38a7da350adcacea31a476f658142827eba19767c54b54e4321e520bd7205"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_digest(capsys, command):
    want_rc, want_digest = GOLDEN[command]
    rc = main(command.split())
    out = capsys.readouterr().out
    assert rc == want_rc
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest, out


def test_twelve_hole_count_is_exact(capsys):
    rc = main(f"gsd --group symmetric:4 --lattice {TWELVE_HOLE_PATCH}".split())
    results = json.loads(capsys.readouterr().out)["results"]
    assert rc == EXIT_OK
    assert results["dimension"] == results["by_method"]["modular"] == 24 ** 11
