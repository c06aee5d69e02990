"""Byte-stable reports: the sha256 of stdout for a fixed set of cheap commands.

Every command here prints only integers, names and fixed-format text, so
its JSON is identical on every machine.  A changed digest means a changed
report, which has to be deliberate.
"""

import hashlib

import pytest

from qdw.cli import EXIT_INVARIANT, EXIT_OK, main

# command line -> (exit status, sha256 of stdout)
GOLDEN = {
    "gsd --group cyclic:2 --lattice torus:2x2":
        (EXIT_OK, "ef43df3e107383ad4da588e565aa4ab90500703ada2c9d71e546addbae660da8"),
    # one route in budget: gsd-route-agreement is reported as skip
    "gsd --group symmetric:3 --lattice torus:3x3":
        (EXIT_OK, "0395024aef0be02f58b57db7a88a107164781e03bd9bc30c25ea14d26c6018a8"),
    "subgroups --group dihedral:4":
        (EXIT_OK, "b3715952ff6c8af1e10f9a933d90b17359cf3e5d7ed86e735fcd68f0316a272f"),
    "qudit-dim --group dihedral:4 --subgroup trivial --subgroup2 trivial":
        (EXIT_OK, "25d00af9b6f126e2ac6c501b6db64a4460d23802cfd547068d66e84e4767b1e9"),
    "lagrangian --group symmetric:3 --subgroup e,(12)":
        (EXIT_OK, "3e753563a16d38dae9d10718306ed12117b67fbd60a1f34c759f8eedf4c2bb49"),
    "verify-all --group cyclic:3":
        (EXIT_OK, "2f52ad6e19ffb1e6c05dac5be0399ead89824003a669b241cc6c5f494520e8a1"),
    "lattice-audit --group cyclic:3 --lattice ring:3 --subgroup full "
    "--subgroup2 trivial --inject-literal-edge in0":
        (EXIT_INVARIANT,
         "8c0a60466ef21b6dc3ae3aab1a4a29380188dbbff8ef3154b40378f6099766e8"),
    # the audit's permutation pre-test decides most pairs of these two;
    # both digests were taken with every pair expanded into atoms
    "lattice-audit --group symmetric:3 --lattice torus:2x2":
        (EXIT_OK, "7debc0349b3256370f4b43fffea225dd031d60070d56c4e947e3080da6320dcd"),
    "lattice-audit --group quaternion8 --lattice ring:3 --subgroup 1,-1 --subgroup2 1":
        (EXIT_OK, "d8092834a5a785bd9ce77a82c53907a9b6e87cf852c27c14f1a5565cd9252c52"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_digest(capsys, command):
    want_rc, want_digest = GOLDEN[command]
    rc = main(command.split())
    out = capsys.readouterr().out
    assert rc == want_rc
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest, out
