"""Golden records of op outputs, and the comparator that checks an op.

A golden holds the exit code, the stdout text and, where an op emits a
simulation trace or writes a file, their SHA-256. Comparison rules:

- decimal numbers in stdout agree within 1e-9 (bits) for fixed-point
  fields, and within 1e-9 relative for scientific (joule) fields;
- every other character of stdout matches exactly;
- a ``simulate`` trace CSV and a written file match byte for byte.
"""

from __future__ import annotations

import hashlib
import re

NUMBER = re.compile(r"(-?\d+\.\d+(?:[eE][-+]?\d+)?)")
ABS_TOL = 1e-9
REL_TOL = 1e-9
# a one-unit change in the 9th decimal parses as slightly above 1e-9
PARSE_SLACK = 1e-12
TRACE_HEADER = "block_index,"


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def split_trace(stdout: str) -> tuple[str, str | None]:
    """(text before the trace CSV, the trace CSV or None)."""
    if stdout.startswith(TRACE_HEADER):
        return "", stdout
    at = stdout.find("\n" + TRACE_HEADER)
    if at < 0:
        return stdout, None
    return stdout[: at + 1], stdout[at + 1:]


def record(exit_code, stdout: str, files: dict[str, bytes]) -> dict:
    """The golden for one outcome."""
    text, trace = split_trace(stdout)
    golden = {"exit": exit_code, "stdout": text}
    if trace is not None:
        golden["trace_sha256"] = sha256(trace)
    if files:
        golden["files_sha256"] = {path: sha256(data) for path, data in sorted(files.items())}
    return golden


def _numbers_agree(want: str, got: str) -> bool:
    a, b = float(want), float(got)
    if "e" in want.lower():
        return abs(a - b) <= REL_TOL * abs(a)
    return abs(a - b) <= ABS_TOL + PARSE_SLACK


def compare_text(want: str, got: str) -> list[str]:
    """Differences between two stdout texts under the numeric tolerance."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        return [f"{len(got_lines)} lines, expected {len(want_lines)}"]
    problems = []
    for n, (w, g) in enumerate(zip(want_lines, got_lines), 1):
        w_parts, g_parts = NUMBER.split(w), NUMBER.split(g)
        same = len(w_parts) == len(g_parts) and all(
            wp == gp if i % 2 == 0 else _numbers_agree(wp, gp)
            for i, (wp, gp) in enumerate(zip(w_parts, g_parts))
        )
        if not same:
            problems.append(f"line {n}: {g!r}, expected {w!r}")
    return problems


def compare(golden: dict, actual: dict) -> list[str]:
    """Differences between a golden and the record of an actual outcome."""
    if actual["exit"] != golden["exit"]:
        return [f"exit {actual['exit']!r}, expected {golden['exit']!r}"]
    problems = compare_text(golden["stdout"], actual["stdout"])
    if actual.get("trace_sha256") != golden.get("trace_sha256"):
        problems.append("simulation trace differs")
    if actual.get("files_sha256") != golden.get("files_sha256"):
        problems.append("written file differs")
    return problems
