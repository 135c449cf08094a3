"""Command-line entry point.

One subcommand per study. Every subcommand reads a JSON config file,
optionally patches it with ``--grid-override`` assignments, runs the study
and writes CSV to ``--out``, the config's ``out`` path, or stdout.

Exit codes: 0 success, 2 unusable config (parse, validation or geometry),
3 runtime failure (including an exceptional-point search whose outcome is
"degenerate" or "not_found"), 4 output could not be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exceptions import (
    InvalidGeometry,
    OpenCavityError,
    ParseError,
    ValidationError,
    WriteError,
)
from .sweeps import STUDIES, export_csv, format_csv, parse_config, run_study

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="opencavity",
        description="Transmission studies of open tight-binding cavities.",
    )
    sub = parser.add_subparsers(dest="study", required=True)
    for study in STUDIES:
        p = sub.add_parser(study, help=f"run a {study} study")
        p.add_argument("--config", required=True, help="JSON study config")
        p.add_argument("--out", help="CSV output path (default: config out or stdout)")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="has no effect; every study runs serially",
        )
        p.add_argument(
            "--grid-override",
            action="append",
            default=[],
            metavar="PATH=VALUE",
            help="override a config entry by dotted path, e.g. e_grid.points=401",
        )
    return parser


def _apply_overrides(doc, overrides):
    for item in overrides:
        path, sep, raw = item.partition("=")
        if not sep or not path:
            raise ValidationError(
                f"override must look like path=value, got {item!r}",
                field=path or item,
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        keys = path.split(".")
        node = doc
        for key in keys[:-1]:
            nxt = node.get(key)
            if nxt is None:
                nxt = {}
                node[key] = nxt
            elif not isinstance(nxt, dict):
                raise ValidationError(
                    f"cannot descend into non-object {key!r}", field=path
                )
            node = nxt
        node[keys[-1]] = value
    return doc


def main(argv=None):
    args = _build_parser().parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"opencavity: cannot read config: {err}", file=sys.stderr)
        return 2

    try:
        if args.grid_override:
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as err:
                raise ParseError(err.msg, line=err.lineno, column=err.colno) from err
            if not isinstance(doc, dict):
                raise ValidationError("top level must be an object", field="")
            doc = _apply_overrides(doc, args.grid_override)
            text = json.dumps(doc)
        config = parse_config(text, base_dir=os.path.dirname(args.config) or ".")
        if config.study != args.study:
            raise ValidationError(
                f"config is for study {config.study!r}, invoked as {args.study!r}",
                field="study",
            )
    except ParseError as err:
        where = f" (line {err.line}, column {err.column})" if err.line else ""
        print(f"opencavity: config parse error{where}: {err}", file=sys.stderr)
        return 2
    except (ValidationError, InvalidGeometry) as err:
        field = getattr(err, "field", None)
        at = f" at {field}" if field else ""
        print(f"opencavity: invalid config{at}: {err}", file=sys.stderr)
        return 2

    report = None
    out_path = args.out or config.out
    try:
        result = run_study(config)
        if config.study == "ep-find":
            result, report = result
        if out_path:
            export_csv(result, out_path)
        else:
            sys.stdout.write(format_csv(result))
    except WriteError as err:
        print(f"opencavity: {err}", file=sys.stderr)
        return 4
    except OpenCavityError as err:
        print(f"opencavity: {type(err).__name__}: {err}", file=sys.stderr)
        return 3

    if report is not None:
        p1, p2 = report.params
        print(
            "ep-find: "
            f"success={report.success} p=({p1:.12g}, {p2:.12g}) "
            f"z*={report.z_star.real:.12g}{report.z_star.imag:+.12g}j "
            f"separation={report.separation:.3e} angle={report.angle:.3e} "
            f"outcome={report.outcome}",
            file=sys.stderr,
        )
        if not report.success:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
