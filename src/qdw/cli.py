"""Command-line runner: one deterministic report per invocation.

Reports are value-stable: the same configuration and version always
produce the same bytes on stdout, so runs can be diffed.  Wall-clock
timing goes to stderr (and into the pretty format) only.

Each run is one process, so start-up is part of every answer.  This
module is the dispatcher alone: the run configuration, the report, the
parser, rendering and `main`.  Each command's handler lives in the layer
it drives, which `COMMAND_TABLE` names and which is imported only when
the command runs, and only the named command's subparser is built.
Package names read off this module (the benchmark's traced handlers read
`cli.build_terms`, `cli.parse_lattice` and others) resolve through
`__getattr__`, by the package's table of lazy exports (`qdw._EXPORTS`).
No handler imports this module, which under `python -m qdw.cli` is
`__main__` and would be compiled a second time.  Run as a script, the
process skips the collector's passes at exit (`gc.freeze` under
`__main__`).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import sys
import time
from typing import Optional, Sequence

from qdw import _SOURCE
from qdw.groups import InvariantError, UsageError
from qdw.records import FrozenRecord, Record

__all__ = ["RunConfig", "Report", "main", "run"]


def __getattr__(name: str):
    """A package export read off this module, such as `cli.build_terms` in the
    benchmark's traced handlers, resolves through the package's own table,
    so reading one imports its layer."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_SOURCE[name]), name)


EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# run configuration


class RunConfig(FrozenRecord):
    _fields = __slots__ = ("command", "group", "subgroup", "subgroup2", "lattice", "format",
                           "tolerance", "out", "inject_literal_edge")

    def __init__(self, command: str, group: Optional[str] = None,
                 subgroup: Optional[str] = None, subgroup2: Optional[str] = None,
                 lattice: Optional[str] = None, format: str = "json",
                 tolerance: float = 1e-10, out: Optional[str] = None,
                 inject_literal_edge: Optional[str] = None):
        super().__init__(command, group, subgroup, subgroup2, lattice, format, tolerance,
                         out, inject_literal_edge)

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = sorted(set(data) - set(cls._fields))
        if unknown:
            raise UsageError(f"unknown config fields: {', '.join(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.command not in COMMAND_TABLE:
            raise UsageError(f"unknown command {self.command!r}")
        if self.format not in ("json", "csv", "pretty-table"):
            raise UsageError(f"unknown format {self.format!r}")
        if not self.tolerance > 0:
            raise UsageError("--tolerance must be positive")


class Report(Record):
    """`checks` holds {"name": ..., "status": "pass" | "skip" | "fail"} per check."""
    _fields = __slots__ = ("config", "results", "checks", "elapsed_ms")

    def __init__(self, config: RunConfig, results: dict, checks: list[dict],
                 elapsed_ms: float = 0.0):
        super().__init__(config, results, checks, elapsed_ms)

    @property
    def ok(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    def to_payload(self) -> dict:
        # timings are deliberately absent: stdout bytes must not vary
        return {
            "command": self.config.command,
            "config": self.config.to_dict(),
            "results": self.results,
            "checks": self.checks,
        }


# ---------------------------------------------------------------------------
# commands


Flat = Optional[tuple[list[str], list[list]]]


class Command(FrozenRecord):
    """A command's layer, its help text, and the validations behind its numbers.

    The handler is `_cmd_<name>`, dashes as underscores, in `module`.  It
    takes the RunConfig and returns (results, flat, checks): flat is the
    (header, rows) table that csv and pretty-table print, or None, and
    checks None means every validator named here passed.
    """
    _fields = __slots__ = ("module", "help", "validators")

    def __init__(self, module: str, help: str, validators: tuple[str, ...] = ()):
        super().__init__(module, help, validators)


COMMAND_TABLE = {
    "group-info": Command("qdw.characters", "elements, classes, and irrep dimensions of a group",
                          ("character-orthogonality",)),
    "anyons": Command("qdw.classify", "bulk sector census of the chosen group",
                      ("sector-square-sum", "twist-unimodular")),
    "subgroups": Command("qdw.classify", "all subgroups with normality and boundary type",
                         ("subgroup-closure",)),
    "lagrangian": Command("qdw.classify", "condensate multiplicities for one boundary subgroup",
                          ("condensate-dimension", "vacuum-multiplicity", "boson-support")),
    "excitations": Command("qdw.classify", "boundary excitation census for one subgroup",
                           ("excitation-square-sum",)),
    "defects": Command("qdw.classify", "domain-wall defects between two boundary subgroups",
                       ("defect-square-sum",)),
    "qudit-dim": Command("qdw.classify", "strip ground-state count between two boundaries",
                         ("strip-route-agreement",)),
    "lattice-audit": Command("qdw.lattice",
                             "projector and commutation audit of all lattice terms",
                             ("term-projector", "term-hermitian", "pairwise-commutation")),
    "gsd": Command("qdw.gsd", "ground-state count of a lattice, cross-checked routes",
                   ("gsd-route-agreement",)),
    "logical": Command("qdw.logical", "Weyl pair report for a two-hole qudit encoding",
                       ("weyl-relations", "frame-transport", "operator-unitarity")),
    "charge-project": Command("qdw.logical",
                              "anyon charge projector family around one hole",
                              ("projector-completeness", "projector-orthogonality",
                               "projector-idempotence", "frame-diagonality")),
    # its checks are the named cross-checks it runs
    "verify-all": Command("qdw.verify",
                          "run every applicable named cross-check for a group"),
}
COMMANDS = tuple(COMMAND_TABLE)
VALIDATORS = {name: c.validators for name, c in COMMAND_TABLE.items() if c.validators}


# ---------------------------------------------------------------------------
# output rendering


def render_json(report: Report) -> str:
    return json.dumps(report.to_payload(), indent=2, sort_keys=True) + "\n"


def render_csv(flat: tuple[list[str], list[list]]) -> str:
    import csv

    header, rows = flat
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _format_cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    if isinstance(x, bool):
        return "yes" if x else "no"
    return str(x)


def render_pretty(report: Report, flat: Flat) -> str:
    lines = [f"command: {report.config.command}"]
    cfg = report.config
    for key in ("group", "subgroup", "subgroup2", "lattice"):
        val = getattr(cfg, key)
        if val is not None:
            lines.append(f"{key}: {val}")
    lines.append("")
    if flat is not None:
        header, rows = flat
        cells = [header] + [[_format_cell(x) for x in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        for ri, row in enumerate(cells):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            if ri == 0:
                lines.append("  ".join("-" * w for w in widths))
    else:
        lines.append(json.dumps(report.results, indent=2, sort_keys=True))
    lines.append("")
    status = "ok" if report.ok else "FAILED"
    names = ", ".join(c["name"] + (" (skip)" if c["status"] == "skip" else "")
                      for c in report.checks) or "none"
    lines.append(f"checks ({status}): {names}")
    lines.append(f"elapsed: {report.elapsed_ms:.1f} ms")
    return "\n".join(lines) + "\n"


def render(report: Report, flat: Flat) -> str:
    if report.config.format == "json":
        return render_json(report)
    if report.config.format == "csv":
        if flat is None:
            raise UsageError(
                f"{report.config.command} results are nested; csv needs a flat "
                "table (use json or pretty-table)")
        return render_csv(flat)
    return render_pretty(report, flat)


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse default exits; route through UsageError
        raise UsageError(message)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Every command's subparser, or only `command`'s when one is named."""
    parser = _Parser(
        prog="qdw",
        description="Exact workbench for finite-group lattice models "
                    "with gapped boundaries.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    # the flags every command takes, declared once and copied into each subparser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", required=True,
                        help="group spec, e.g. cyclic:3, symmetric:3, "
                             "product:cyclic:2,cyclic:2, or a JSON table")
    common.add_argument("--subgroup",
                        help="subgroup spec: element list like \"e,(12)\", or "
                             "trivial | full | cyclic:<element>")
    common.add_argument("--subgroup2", help="second subgroup spec")
    common.add_argument("--lattice",
                        help="torus:RxC | patch:RxC | ring:C | JSON with holes")
    common.add_argument("--format", default="json",
                        choices=("json", "csv", "pretty-table"))
    # read by no check, since every check is exact; kept while the
    # benchmark's traced run passes it to `verify.run_check`
    common.add_argument("--tolerance", type=float, default=1e-10,
                        help="unused: every check is exact")
    common.add_argument("--out", help="write the report to this file")
    for name, spec in COMMAND_TABLE.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=spec.help, parents=[common])
        if name == "lattice-audit":
            p.add_argument("--inject-literal-edge", metavar="EDGE",
                           help="add the naive one-sided edge average on EDGE "
                                "so the audit demonstrably fails")
    return parser


def parse_argv(argv: Sequence[str]) -> RunConfig:
    argv = list(argv)
    # a known command needs its own subparser only; --help, a missing
    # command and an unknown one need them all
    ns = build_parser(argv[0] if argv and argv[0] in COMMAND_TABLE else None).parse_args(argv)
    if ns.command is None:
        raise UsageError("missing command")
    return RunConfig.from_dict(vars(ns))


def run(cfg: RunConfig) -> tuple[Report, Flat]:
    t0 = time.perf_counter()
    command = COMMAND_TABLE[cfg.command]
    handler = getattr(importlib.import_module(command.module),
                      "_cmd_" + cfg.command.replace("-", "_"))
    results, flat, checks = handler(cfg)
    if checks is None:
        # reaching here means every library-internal assertion already passed
        checks = [{"name": n, "status": "pass"} for n in command.validators]
    report = Report(config=cfg, results=results, checks=checks,
                    elapsed_ms=(time.perf_counter() - t0) * 1e3)
    return report, flat


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_argv(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report, flat = run(cfg)
        text = render(report, flat)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        names = ", ".join(COMMAND_TABLE[cfg.command].validators) or cfg.command
        print(f"invariant failure [{names}]: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"usage error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    print(f"elapsed: {report.elapsed_ms:.1f} ms", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_INVARIANT


if __name__ == "__main__":
    status = main()
    # Every object is about to be freed anyway.  Frozen, they are out of the
    # collector's reach, so interpreter teardown skips its passes over them;
    # unlike os._exit, this keeps finalization and atexit hooks.
    gc.freeze()
    sys.exit(status)
