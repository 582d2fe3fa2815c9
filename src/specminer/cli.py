"""Command-line front door: parse a C fragment, infer axioms, print them.

Exit codes:
  0   success
  2   the input file failed to lex, parse, or type-check, is nested
      too deeply to analyze (Python's recursion limit), or folds two
      constants into an int longer than a literal may be
  3   a run lost a leaf to its pattern or step budget (partial output
      was printed)
  64  usage errors: bad flags, unreadable input, unknown function names
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

from .engine import ConstantTooLong, Limits
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


USAGE = """\
usage: specminer [-h] -f NAME [--unroll N] [--format {text,json}]
                 [--lazy-aliasing] [--dump-patterns] [--observers NAMES]
                 [--seed-label PREFIX]
                 input
"""

HELP = """
Infer observer-based pre/post axioms for a function in a heap-manipulating C
fragment.

positional arguments:
  input                 path to the C source file

options:
  -h, --help            show this help message and exit
  -f NAME, --function NAME
                        the modifier function to analyze
  --unroll N            loop/recursion unroll bound (default 1)
  --format {text,json}  output format (default text)
  --lazy-aliasing       also consider aliasing among discovered input objects
  --dump-patterns       include the raw result patterns in the output
  --observers NAMES     comma-separated observer whitelist (default: every
                        non-void function)
  --seed-label PREFIX   prefix for generated symbol names (letters, digits,
                        '_' and '-')

A flag's value is the next argument or follows '=', as in --unroll=2.
"""

# flag -> the argument it sets; a switch sets True, any other flag takes a value
_SWITCHES = {"--lazy-aliasing": "lazy_aliasing", "--dump-patterns": "dump_patterns"}
_VALUED = {"-f": "function", "--function": "function", "--unroll": "unroll",
           "--format": "format", "--observers": "observers", "--seed-label": "seed_label"}
# what a seed label may hold: it prefixes symbol displays, where a '.'
# would render as '->' like a field path's
_LABEL_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


class _UsageError(Exception):
    pass


def parse_args(argv) -> SimpleNamespace | None:
    """The validated arguments, or None when they ask for help. `observers`
    becomes a list of names (or None), and `max_patterns` comes from the
    environment. Flags are spelled out in full, and the last one given
    wins."""
    ns = SimpleNamespace(function=None, unroll="1", format="text", lazy_aliasing=False,
                         dump_patterns=False, observers=None, seed_label="")
    inputs = []
    rest = iter(argv)
    for arg in rest:
        flag, eq, value = arg.partition("=") if arg.startswith("--") else (arg, "", "")
        if arg in ("-h", "--help"):
            return None
        if flag in _SWITCHES and not eq:
            setattr(ns, _SWITCHES[flag], True)
        elif flag in _VALUED:
            if not eq:
                value = next(rest, None)
                # a value never looks like a flag; a negative number may be one
                if value is None or (value[:1] == "-" and len(value) > 1
                                     and not value[1:].isdigit()):
                    raise _UsageError(f"argument {flag}: expected one argument")
            setattr(ns, _VALUED[flag], value)
        elif arg[:1] == "-" and len(arg) > 1:
            raise _UsageError(f"unrecognized arguments: {arg}")
        else:
            inputs.append(arg)
    missing = [name for name, absent in (("input", not inputs),
                                         ("-f/--function", ns.function is None)) if absent]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if len(inputs) > 1:
        raise _UsageError(f"unrecognized arguments: {' '.join(inputs[1:])}")
    ns.input = inputs[0]
    try:
        ns.unroll = int(ns.unroll)
    except ValueError:
        raise _UsageError(f"argument --unroll: invalid int value: {ns.unroll!r}")
    if ns.format not in ("text", "json"):
        raise _UsageError(f"argument --format: invalid choice: {ns.format!r} "
                          f"(choose from 'text', 'json')")
    if ns.unroll < 1:
        raise _UsageError("--unroll must be at least 1")
    if not _LABEL_CHARS.issuperset(ns.seed_label):
        raise _UsageError(f"argument --seed-label: invalid label {ns.seed_label!r} "
                          f"(use letters, digits, '_' and '-')")
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
    import json  # only JSON output loads it, so text runs start faster

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
        sys.stderr.write(USAGE)
        print(f"specminer: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        sys.stdout.write(USAGE + HELP)
        return EXIT_OK

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"specminer: error: cannot read {args.input}: {e}",
              file=sys.stderr)
        return EXIT_USAGE

    too_deep = f"specminer: {args.input}: input nested too deeply"
    try:
        index = load_program(source)
    except (IllegalCharacter, ParseError, ResolveError) as e:
        print(f"specminer: {args.input}: {e}", file=sys.stderr)
        return EXIT_SOURCE
    except RecursionError:
        print(too_deep, file=sys.stderr)
        return EXIT_SOURCE
    for w in index.warnings:
        print(f"specminer: {args.input}: warning: {w}", file=sys.stderr)

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
    except RecursionError:
        print(too_deep, file=sys.stderr)
        return EXIT_SOURCE
    except ConstantTooLong as e:
        print(f"specminer: {args.input}: {e}", file=sys.stderr)
        return EXIT_SOURCE

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
