"""Command-line front door: parse a C fragment, infer axioms, print them.

Exit codes:
  0   success
  2   the input file failed to lex, parse, or type-check
  3   a run lost a leaf to its pattern or step budget (partial output
      was printed)
  64  usage errors: bad flags, unreadable input, unknown function names
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .engine import Limits
from .frontend import load_program
from .frontend.lexer import IllegalCharacter
from .frontend.parser import ParseError
from .frontend.resolver import ResolveError
from .inference import (
    NotAnObserver,
    SpecSet,
    UnknownFunction,
    infer_spec,
)
from .symstate import render_pattern

EXIT_OK = 0
EXIT_SOURCE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64

MAX_PATTERNS_ENV = "SPECMINER_MAX_PATTERNS"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(
        prog="specminer",
        description="Infer observer-based pre/post axioms for a function in "
                    "a heap-manipulating C fragment.",
    )
    p.add_argument("input", help="path to the C source file")
    p.add_argument("-f", "--function", required=True, metavar="NAME",
                   help="the modifier function to analyze")
    p.add_argument("--unroll", type=int, default=1, metavar="N",
                   help="loop/recursion unroll bound (default 1)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")
    p.add_argument("--lazy-aliasing", action="store_true",
                   help="also consider aliasing among discovered input objects")
    p.add_argument("--dump-patterns", action="store_true",
                   help="include the raw result patterns in the output")
    p.add_argument("--observers", metavar="NAMES",
                   help="comma-separated observer whitelist (default: every "
                        "non-void function)")
    p.add_argument("--seed-label", default="", metavar="PREFIX",
                   help="prefix for generated symbol names")
    return p


def parse_args(argv) -> argparse.Namespace:
    """The validated arguments. `observers` becomes a list of names (or
    None), and `max_patterns` comes from the environment."""
    ns = _build_parser().parse_args(argv)
    if ns.unroll < 1:
        raise _UsageError("--unroll must be at least 1")
    if ns.observers is not None:
        ns.observers = [s.strip() for s in ns.observers.split(",") if s.strip()]
        if not ns.observers:
            raise _UsageError("--observers needs at least one name")
    ns.max_patterns = 4096
    raw = os.environ.get(MAX_PATTERNS_ENV)
    if raw is not None:
        try:
            ns.max_patterns = int(raw)
        except ValueError:
            raise _UsageError(f"{MAX_PATTERNS_ENV} must be an integer, got {raw!r}")
        if ns.max_patterns < 1:
            raise _UsageError(f"{MAX_PATTERNS_ENV} must be positive")
    return ns


# ---------------------------------------------------------------- emitters

def _conjunction(eqs) -> list:
    """One line per equation, every one after the first led by `/\\`."""
    return [f"  {e.render()}" if i == 0 else f"  /\\ {e.render()}"
            for i, e in enumerate(eqs)]


def emit_text(spec: SpecSet, patterns=None) -> str:
    out = []
    if patterns is not None:
        for p in patterns:
            out.append(f"-- pattern {p.provenance_id}")
            out.append(render_pattern(p))
            out.append("")
    if not spec.axioms:
        out.append("no axioms inferable at this bound")
        return "\n".join(out) + "\n"
    blocks = []
    for ax in spec.axioms:
        if ax.pre:
            lines = ["(", *_conjunction(ax.pre), ") => ("]
        else:
            lines = ["true => ("]
        tail = list(ax.post) + ([ax.ret] if ax.ret is not None else [])
        lines += _conjunction(tail) or ["  true"]
        lines.append(")" + (" [approx]" if ax.approx else ""))
        blocks.append("\n".join(lines))
    out.append("\n\n".join(blocks))
    return "\n".join(out) + "\n"


def emit_json(spec: SpecSet, patterns=None) -> str:
    doc = {
        "tool": "specminer",
        "modifier": spec.modifier,
        "limits": {
            "unroll": spec.limits.unroll_bound,
            "maxPatterns": spec.limits.max_patterns,
            "maxSteps": spec.limits.max_steps,
        },
        "stats": spec.stats,
        "diagnostics": spec.diagnostics,
        "axioms": [
            {
                "pre": [e.to_json() for e in ax.pre],
                "post": [e.to_json() for e in ax.post],
                "ret": ax.ret.to_json() if ax.ret is not None else None,
                "approx": ax.approx,
                "provenance": ax.provenance,
            }
            for ax in spec.axioms
        ],
    }
    if patterns is not None:
        doc["patterns"] = [
            {"id": p.provenance_id, "rendered": render_pattern(p)}
            for p in patterns
        ]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    t0 = time.monotonic()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as e:
        sys.stderr.write(_build_parser().format_usage())
        print(f"specminer: error: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"specminer: error: cannot read {args.input}: {e}",
              file=sys.stderr)
        return EXIT_USAGE

    try:
        index = load_program(source)
    except (IllegalCharacter, ParseError, ResolveError) as e:
        print(f"specminer: {args.input}: {e}", file=sys.stderr)
        return EXIT_SOURCE

    limits = Limits(unroll_bound=args.unroll, max_patterns=args.max_patterns)
    try:
        spec = infer_spec(
            index,
            args.function,
            limits,
            observers_override=args.observers,
            lazy_aliasing=args.lazy_aliasing,
            seed_label=args.seed_label,
        )
    except (UnknownFunction, NotAnObserver) as e:
        print(f"specminer: error: {e}", file=sys.stderr)
        return EXIT_USAGE

    patterns = spec.patterns if args.dump_patterns else None
    if args.format == "json":
        sys.stdout.write(emit_json(spec, patterns))
    else:
        sys.stdout.write(emit_text(spec, patterns))
        for d in spec.diagnostics:
            print(f"note: {d}", file=sys.stderr)
    print(f"elapsed: {time.monotonic() - t0:.3f}s", file=sys.stderr)

    return EXIT_BUDGET if spec.budget_error else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
