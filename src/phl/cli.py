"""Command line surface: build models, emit cubes, render slices, run checks.

    phl model  --spec PATH [--out PATH]
    phl cube   --spec PATH [--out PATH] [--format json]
    phl render --spec CUBE_PATH [--out PATH] [--format ascii|tex]
    phl check  --spec PATH [--out PATH]

Exit codes: 0 success / all checks pass, 1 some check failed, 2 parse or
file error (malformed JSON or schema, unreadable or unwritable path, text
that is not UTF-8), 3 model validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import run_check_suite
from .models import ModelError, ModelSpec, SpecError, build_model
from .perverse import PerverseHodgeCube, cube

__all__ = ["main", "render_ascii", "render_tex"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INVALID_MODEL = 3


class _ParseError(Exception):
    pass


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer literal longer than int's digit limit
        raise _ParseError(str(exc)) from None


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_spec(path: str) -> ModelSpec:
    return ModelSpec.from_json_dict(_load_json(path))


def render_ascii(c: PerverseHodgeCube) -> str:
    """One square grid per slice d, rows k descending, columns i ascending,
    zeros as a middle dot, counts right-aligned."""
    if not c.entries:
        return "(empty)\n"
    n = c.n
    lines = []
    for d in range(0, 2 * n + 1):
        sl = c.slice(d)
        w = min(d, 2 * n - d)
        for (i, k) in sl:
            w = max(w, abs(i), abs(k))
        width = max((len(str(h)) for h in sl.values()), default=1)
        lines.append(f"d = {d}")
        for k in range(w, -w - 1, -1):
            cells = []
            for i in range(-w, w + 1):
                h = sl.get((i, k), 0)
                cells.append((str(h) if h else "·").rjust(width))
            lines.append(" ".join(cells))
        lines.append("")
    return "\n".join(lines)


def render_tex(c: PerverseHodgeCube) -> str:
    """Labeled lattice points (i, k, d-n), one node per nonzero entry,
    sorted by (d, k, i); template documented in the README and pinned by a
    golden test."""
    if not c.entries:
        return "(empty)\n"
    lines = [
        f"% perverse-Hodge cube, n = {c.n}",
        "\\begin{tikzpicture}[z={(-0.3cm,-0.2cm)}]",
    ]
    for (i, k, d) in c.support():
        h = c.entries[(i, k, d)]
        lines.append(f"  \\node at ({i}, {k}, {d - c.n}) {{${h}$}};")
    lines.append("\\end{tikzpicture}")
    lines.append("")
    return "\n".join(lines)


def cmd_model(args) -> int:
    spec = _load_spec(args.spec)
    model = build_model(spec)
    betti = [0] * (4 * model.n + 1)
    for d in range(model.pieces):
        betti[2 * d] = model.dims[d]
    doc = {
        "kind": model.kind,
        "n": model.n,
        "b2": model.quad.b2,
        "total_dim": model.total_dim,
        "betti": betti,
        "valid": True,
    }
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_cube(args) -> int:
    spec = _load_spec(args.spec)
    model = build_model(spec)
    c = cube(model)
    _write(c.dumps() + "\n", args.out)
    return EXIT_OK


def cmd_render(args) -> int:
    doc = _load_json(args.spec)
    try:
        c = PerverseHodgeCube.from_json_dict(doc)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    text = render_tex(c) if args.format == "tex" else render_ascii(c)
    _write(text, args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    model = build_model(spec)
    report, _ = run_check_suite(model)
    payload = report.dumps() + "\n"
    summary = "\n".join(report.summary_lines()) + "\n"
    if args.out:
        _write(payload, args.out)
        sys.stdout.write(summary)
    else:
        sys.stdout.write(payload)
        sys.stderr.write(summary)
    n_fail = len(report.failures())
    tally = f"{len(report.results) - n_fail}/{len(report.results)} checks passed\n"
    (sys.stdout if args.out else sys.stderr).write(tally)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phl",
        description="exact perverse-Hodge cube toolkit for hyperkahler-type models",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("model", help="build and validate a model, print a summary")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("cube", help="compute the cube of a model spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_cube)

    p = sub.add_parser("render", help="render a cube JSON file")
    p.add_argument("--spec", required=True, help="path to a cube JSON file")
    p.add_argument("--out")
    p.add_argument("--format", choices=["ascii", "tex"], default="ascii")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("check", help="run the full verification suite")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"parse error: {exc.msg} at line {exc.lineno} column {exc.colno}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    except _ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL


if __name__ == "__main__":
    sys.exit(main())
