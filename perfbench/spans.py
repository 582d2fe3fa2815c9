"""Per-layer spans and counters for one traced benchmark job.

The package is traced from outside. `Tracer.install` replaces the module
attribute that each caller actually looks up with a wrapper that records a
span -- name, parent, start, end and self time -- and the layer's counters.
It is installed only inside a forked job process and never in an untraced
run, so no wrapper outlives the job it measures.

`check_sat`, `entails` and `Pattern.clone` are leaves that run up to a
million times in one job. They are folded into their innermost enclosing
span as a call count and self time instead of being stored one by one.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

EXPLAIN = "inference.explain"


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        # [name, parent index or -1, start, end, self seconds, {leaf: [calls, self seconds]}]
        self.spans: list = []
        self._frames: list = []  # open calls: [name, start, child seconds, span index or None]
        self._open_spans: list = []  # indices of the open non-leaf spans
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._queries: set = set()  # check_sat arguments seen in this job

    # ---------------------------------------------------------- spans

    def _enter(self, name: str, leaf: bool) -> list:
        start = perf_counter()
        idx = None
        if not leaf:
            idx = len(self.spans)
            parent = self._open_spans[-1] if self._open_spans else -1
            self.spans.append([name, parent, start - self.t0, None, None, {}])
            self._open_spans.append(idx)
        frame = [name, start, 0.0, idx]
        self._frames.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._frames.pop()
        name, start, child_s, idx = frame
        dur = end - start
        own = dur - child_s
        if self._frames:
            self._frames[-1][2] += dur
        self.calls[name] += 1
        self.self_s[name] += own
        if idx is None:
            if self._open_spans:
                folded = self.spans[self._open_spans[-1]][5].setdefault(name, [0, 0.0])
                folded[0] += 1
                folded[1] += own
        else:
            self._open_spans.pop()
            span = self.spans[idx]
            span[3] = end - self.t0
            span[4] = own

    def _wrap(self, owner, attr: str, name, after=None, leaf: bool = False) -> None:
        """Replace `owner.attr` by a traced wrapper. `name` is a span name or
        a function of the call's arguments returning one."""
        orig = getattr(owner, attr)
        name_of = name if callable(name) else (lambda _a, _k: name)

        def wrapper(*args, **kwargs):
            frame = self._enter(name_of(args, kwargs), leaf)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)

    # ---------------------------------------------------------- layers

    def _se_name(self, _args, _kwargs) -> str:
        # Observer replays are the `se` calls made directly by `explain`.
        parent = self.spans[self._open_spans[-1]][0] if self._open_spans else ""
        return "engine.se.observer" if parent.startswith(EXPLAIN) else "engine.se.modifier"

    @staticmethod
    def _explain_name(_args, kwargs) -> str:
        phase = kwargs.get("context", "").rsplit(" ", 1)[-1]
        return f"{EXPLAIN}.{phase}"

    def _after_check_sat(self, args, _kwargs, verdict) -> None:
        self.counts[f"check_sat.{verdict.value}"] += 1
        atoms = args[0].atoms
        if atoms in self._queries:
            self.counts["check_sat.repeats"] += 1
        else:
            self._queries.add(atoms)

    def _after_se(self, _args, _kwargs, res) -> None:
        self.counts["se.splits"] += len(res.split_log)
        self.counts["se.truncated"] += res.truncated_paths
        self.counts["se.budget_errors"] += int(res.budget_error)
        self.counts["se.patterns"] += len(res.patterns)

    def _after_explain(self, _args, _kwargs, result) -> None:
        self.counts["explain.equations"] += len(result[0])

    def install(self) -> None:
        from specminer import cli, constraints, engine, inference, symstate

        self._wrap(constraints, "check_sat", "constraints.check_sat",
                   self._after_check_sat, leaf=True)
        self._wrap(constraints, "entails", "constraints.entails", leaf=True)
        self._wrap(symstate.Pattern, "clone", "symstate.clone", leaf=True)
        # `inference` binds `se` at import; `cli` imports `engine.se` when
        # it dumps patterns.
        for owner in (engine, inference):
            self._wrap(owner, "se", self._se_name, self._after_se)
        self._wrap(inference, "explain", self._explain_name, self._after_explain)
        self._wrap(inference, "simplify_spec", "inference.simplify_spec")
        self._wrap(cli, "infer_spec", "inference.infer_spec")
        self._wrap(cli, "load_program", "frontend.load_program")
        for attr in ("emit_text", "emit_json", "render_pattern"):
            self._wrap(cli, attr, "cli.emit")

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": self.spans,
        }
