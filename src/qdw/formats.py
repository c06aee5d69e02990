"""The csv and pretty-table renderings of a report.

`qdw.cli.render` imports this module only for `--format csv` or
`--format pretty-table`, so a json run compiles neither renderer.  A
report here is any object with `config`, `results`, `checks`, `ok` and
`elapsed_ms`, as `qdw.cli.Report` has; this module does not import
`qdw.cli`, which under `python -m qdw.cli` is `__main__`.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Optional


def render_csv(flat: tuple[list[str], list[list]]) -> str:
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


def render_pretty(report, flat: Optional[tuple[list[str], list[list]]]) -> str:
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
