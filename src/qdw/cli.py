"""Command-line runner: one deterministic report per invocation.

Reports are value-stable: the same configuration and version always
produce the same bytes on stdout, so runs can be diffed.  Wall-clock
timing goes to stderr (and into the pretty format) only.

Each run is one process, so start-up is part of every answer.  This
module is the dispatcher alone: the run configuration, the report, the
command-line reader, json rendering and `main`.  Each command's handler
lives in the layer it drives, which `COMMAND_TABLE` names and which is
imported only when the command runs; the csv and pretty-table renderers
live in `qdw.formats`, imported only for those formats.  `parse_argv`
reads argv straight from one table of flags, `FLAGS`, and imports no
option-parsing library (the standard one, with the translation and
locale lookups it loads, cost each run about 7 ms).  It takes a flag as
`--flag value` or `--flag=value`, by its name or a unique prefix, lets
the last of a repeated flag win, and words every refusal as the standard
library's parser does, so scripts that match on those lines keep working.
Package names read off this module (the benchmark's traced handlers read
`cli.build_terms`, `cli.parse_lattice` and others) resolve through the
package's table of lazy exports (`qdw._EXPORTS`, by `qdw._resolver`).
No handler imports this module, which under `python -m qdw.cli` is
`__main__` and would be compiled a second time.  Run as a script, the
process skips the collector's passes at exit (`gc.freeze` under
`__main__`).
"""

from __future__ import annotations

import gc
import importlib
import json
import re
import sys
import time
from typing import Optional, Sequence

from qdw import _resolver
from qdw.groups import InvariantError, UsageError
from qdw.records import FrozenRecord, Record

__all__ = ["RunConfig", "Report", "main", "run"]


# a package export read off this module, such as `cli.build_terms` in the
# benchmark's traced handlers, imports its layer
__getattr__ = _resolver(__name__)


EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
FORMATS = ("json", "csv", "pretty-table")


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
        if self.format not in FORMATS:
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
    "subgroups": Command("qdw.subgroups", "all subgroups with normality and boundary type",
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


def render(report: Report, flat: Flat) -> str:
    if report.config.format == "json":
        return render_json(report)
    if report.config.format == "csv" and flat is None:
        raise UsageError(
            f"{report.config.command} results are nested; csv needs a flat "
            "table (use json or pretty-table)")
    from qdw.formats import render_csv, render_pretty

    if report.config.format == "csv":
        return render_csv(flat)
    return render_pretty(report, flat)


# ---------------------------------------------------------------------------
# argument parsing and entry point


# Every flag, in help order: flag -> (metavar, help, the one command that
# takes it, or None where every command does).  Each takes one value.
FLAGS = {
    "--group": ("GROUP", "group spec, e.g. cyclic:3, symmetric:3, "
                         "product:cyclic:2,cyclic:2, or a JSON table (required)", None),
    "--subgroup": ("SUBGROUP", 'subgroup spec: element list like "e,(12)", or '
                               "trivial | full | cyclic:<element>", None),
    "--subgroup2": ("SUBGROUP2", "second subgroup spec", None),
    "--lattice": ("LATTICE", "torus:RxC | patch:RxC | ring:C | JSON with holes", None),
    "--format": ("FORMAT", "json (default), csv or pretty-table", None),
    # read by no check, since every check is exact; kept while the
    # benchmark's traced run passes it to `verify.run_check`
    "--tolerance": ("TOLERANCE", "unused: every check is exact", None),
    "--out": ("OUT", "write the report to this file", None),
    "--inject-literal-edge": ("EDGE", "add the naive one-sided edge average on EDGE "
                                      "so the audit demonstrably fails", "lattice-audit"),
}
HELP_FLAGS = ("-h", "--help")
_SEPARATOR = "--"      # every token after it is a value
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _read(token: str, names: Sequence[str]) -> Optional[tuple[Optional[str], Optional[str]]]:
    """What `token` is among the option strings `names`: None for a value,
    else (the flag it names, None if it names none; its `=value`, None if
    it has none).

    A unique prefix names its flag, and `-hX` is `-h` with X attached.  A
    token that starts with `-` is a value only when it is `-` alone, a
    negative number, or holds a space.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    flag, eq, attached = token.partition("=")
    if eq and flag in names:
        return flag, attached
    if token[1] == "-":
        matches = [name for name in names if name.startswith(flag)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], attached if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    if _NEGATIVE_NUMBER.fullmatch(token) or " " in token:
        return None
    return None, None


def _scan(tokens: Sequence[str], names: Sequence[str]) -> list:
    """`_read` of each token, the separator as itself and every token after it a value."""
    kinds = []
    for token in tokens:
        if token == _SEPARATOR:
            return kinds + [_SEPARATOR] + [None] * (len(tokens) - len(kinds) - 1)
        kinds.append(_read(token, names))
    return kinds


def _help(command: Optional[str], flag: str, attached: Optional[str]):
    """Print the help of `command`, or of qdw when None, and exit 0.

    Help takes no value: `-hh` reads as `-h -h`, and other attached text is refused.
    """
    if attached is not None and (flag != "-h" or not attached or attached.lstrip("h")):
        ignored = attached.lstrip("h") if flag == "-h" else attached
        raise UsageError(f"argument -h/--help: ignored explicit argument {ignored!r}")
    if command is None:
        width = max(map(len, COMMAND_TABLE)) + 2
        lines = ["usage: qdw <command> --group GROUP [flags]", "",
                 "Exact workbench for finite-group lattice models with gapped boundaries.",
                 "", "commands:"]
        lines += [f"  {name:<{width}}{spec.help}" for name, spec in COMMAND_TABLE.items()]
        lines += ["", "`qdw <command> --help` lists the command's flags."]
    else:
        flags = [("-h, --help", "show this help and exit")]
        flags += [(f"{flag} {metavar}", text) for flag, (metavar, text, only) in FLAGS.items()
                  if only in (None, command)]
        width = max(len(name) for name, _ in flags) + 2
        lines = [f"usage: qdw {command} --group GROUP [flags]", "",
                 COMMAND_TABLE[command].help, "", "flags:"]
        lines += [f"  {name:<{width}}{text}" for name, text in flags]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _value(flag: str, text: str):
    if flag == "--format" and text not in FORMATS:
        raise UsageError(f"argument --format: invalid choice: {text!r} "
                         f"(choose from {', '.join(map(repr, FORMATS))})")
    if flag == "--tolerance":
        try:
            return float(text)
        except ValueError:
            raise UsageError(f"argument --tolerance: invalid float value: {text!r}") from None
    return text


def _read_flags(command: str, tokens: list[str]) -> tuple[dict, list[str]]:
    """The value of each flag `command` was given (the last one wins), and the
    tokens that are none of its flags or their values."""
    names = HELP_FLAGS + tuple(f for f, (_, _, only) in FLAGS.items() if only in (None, command))
    kinds = _scan(tokens, names)
    values, extras = {}, []
    i = 0
    while i < len(tokens):
        kind = kinds[i]
        if kind is None or kind is _SEPARATOR or kind[0] is None:
            extras.append(tokens[i])
        else:
            flag, value = kind
            if flag in HELP_FLAGS:
                _help(command, flag, value)
            if value is None:
                if i + 1 == len(tokens) or kinds[i + 1] is not None:
                    raise UsageError(f"argument {flag}: expected one argument")
                i += 1
                value = tokens[i]
            values[flag] = _value(flag, value)
        i += 1
    if "--group" not in values:
        raise UsageError("the following arguments are required: --group")
    return values, extras


def parse_argv(argv: Sequence[str]) -> RunConfig:
    """The run configuration of a command line: the command, then its flags
    as `--flag value` or `--flag=value`, each by its name or a unique
    prefix of it, the last of a repeated flag winning."""
    argv = list(argv)
    command, values, extras = None, {}, []
    for i, (token, kind) in enumerate(zip(argv, _scan(argv, HELP_FLAGS))):
        # the first value names the command; so does a separator with tokens after it
        if kind is None or (kind is _SEPARATOR and i + 1 < len(argv)):
            if token not in COMMAND_TABLE:
                raise UsageError(f"argument command: invalid choice: {token!r} "
                                 f"(choose from {', '.join(map(repr, COMMAND_TABLE))})")
            command = token
            values, rest = _read_flags(command, argv[i + 1:])
            extras += rest
            break
        if kind is not _SEPARATOR and kind[0] is not None:
            _help(None, *kind)
        extras.append(token)
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    if command is None:
        raise UsageError("missing command")
    return RunConfig.from_dict({"command": command, **{flag[2:].replace("-", "_"): value
                                                       for flag, value in values.items()}})


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
    except InvariantError as exc:
        names = ", ".join(COMMAND_TABLE[cfg.command].validators) or cfg.command
        print(f"invariant failure [{names}]: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:   # a UsageError too
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
