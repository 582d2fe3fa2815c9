"""Golden reference for every grid cell of the benchmark's workloads.

Each cell records the exit code, the axiom content and the SHA-256 of the
raw stdout of one run of the CLI. Axiom content is the text output with
` [approx]` markers stripped, or the JSON document without `approx`,
`stats` and `diagnostics`, so that a later change to those markers or
counters is not counted as a failure; it shows as stdout drift instead.

The reference pins behaviour; it is not a soundness oracle (see README.md).
Regenerate it from the checked-out program with

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re

PATH = pathlib.Path(__file__).with_name("golden.json")
_APPROX = re.compile(r" \[approx\]$", re.MULTILINE)


def axiom_content(stdout: str, fmt: str):
    if fmt != "json":
        return _APPROX.sub("", stdout)
    doc = json.loads(stdout)
    doc.pop("stats", None)
    doc.pop("diagnostics", None)
    for ax in doc.get("axioms", []):
        ax.pop("approx", None)
    return doc


def stdout_sha256(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def mismatch(ref: dict, exit_code, stdout: str, fmt: str) -> str | None:
    """Why a job's result fails the reference, or None when it passes.
    A cell whose reference ran out of budget (exit 3) may now exit 0."""
    allowed = (0, 3) if ref["exit"] == 3 else (ref["exit"],)
    if exit_code not in allowed:
        return f"exit {exit_code}, reference {ref['exit']}"
    try:
        content = axiom_content(stdout, fmt)
    except json.JSONDecodeError as e:
        return f"stdout is not JSON: {e}"
    if content != ref["axioms"]:
        return "axioms differ from the reference"
    return None


def main() -> int:
    import run

    cli = run.import_cli()
    ref = {}
    for cell in sorted({c for cells in run.WORKLOADS.values() for c in cells},
                       key=lambda c: c.id):
        job = run.run_job(cli.main, cell.argv())
        if job["error"] or job["exit"] not in (0, 3):
            raise SystemExit(f"{cell.id}: {job['error'] or job['stderr']}")
        ref[cell.id] = {
            "exit": job["exit"],
            "stdout_sha256": stdout_sha256(job["stdout"]),
            "axioms": axiom_content(job["stdout"], cell.format),
        }
        print(f"{cell.id:<22} exit={job['exit']} {job['seconds']:.3f}s", flush=True)
    PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
