"""Closed-loop execution of a workload's operations, with a check per op.

One caller runs the operation list in order; each op starts only after the
previous one returned and was checked.  A failed op is recorded and counted,
never raised, so one bad answer cannot stop a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass

import qmn.cli

from .workloads import KINDS, Op


@dataclass(frozen=True)
class OpResult:
    op: Op
    seconds: float
    failure: str | None = None
    # True when the op claimed a verdict (exit 0 or 2) and the verdict or a
    # stated tolerance was wrong; an error exit or an exception is a failure
    # without a claim
    wrong: bool = False


def _verdict(op: Op, stdout: str) -> tuple[str, str | None]:
    """Verdict string of the op's output, plus a tolerance breach if any."""
    command = op.argv[0]
    if command == "demo":
        lines = [ln for ln in stdout.splitlines() if ln.startswith("[")]
        ok = bool(lines) and all(ln.startswith("[pass]") for ln in lines)
        return ("pass" if ok else "fail"), None
    with open(op.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if command == "verify-markov":
        verdict = report["verdict"]
        if verdict == "pass" and not report["max_cmi"] <= op.tol:
            return verdict, f"max_cmi {report['max_cmi']:.3e} above tol {op.tol:.0e}"
        return verdict, None
    if command == "classify":
        return report["verdict"], None
    if command == "cumulants":
        return ("clique" if report["clique"]["pass"] else "off-clique"), None
    if command == "decompose":
        if not report["decomposed"]:
            return "not-decomposed", None
        for key in ("residual", "max_commutator"):
            if not report[key] <= op.tol:
                return "decomposed", f"{key} {report[key]:.3e} above {op.tol:.0e}"
        return "decomposed", None
    raise ValueError(f"no verdict rule for command {command!r}")


def _outputs(op: Op) -> list[str]:
    """The files the op writes: its report and any ``--out`` target."""
    paths = [op.report] if op.report else []
    if "--out" in op.argv:
        paths.append(op.argv[op.argv.index("--out") + 1])
    return paths


def _reason(op: Op) -> str:
    """The report's own reason for a failed claim, when it states one."""
    try:
        with open(op.report, "r", encoding="utf-8") as fh:
            reason = json.load(fh).get("reason")
    except (OSError, ValueError, TypeError, AttributeError):
        return ""
    return f": {reason}" if reason else ""


def execute(op: Op) -> OpResult:
    """Run one op through ``qmn.cli.main`` and check its answer.

    The op's output files are removed first, so a file left by an earlier
    pass can never stand in for one this op failed to write.
    """
    for path in _outputs(op):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = qmn.cli.main(list(op.argv))
        except Exception as e:  # an escaped exception is a failed op
            seconds = time.perf_counter() - t0
            return OpResult(op, seconds, f"raised {type(e).__name__}: {e}")
        seconds = time.perf_counter() - t0
    if code == qmn.cli.EXIT_ERROR and op.exit_code != qmn.cli.EXIT_ERROR:
        message = err.getvalue().strip().splitlines()
        return OpResult(op, seconds, f"exit 1: {message[-1] if message else ''}")
    if code != op.exit_code:
        return OpResult(op, seconds,
                        f"exit {code}, expected {op.exit_code}{_reason(op)}",
                        wrong=True)
    try:
        verdict, breach = _verdict(op, out.getvalue())
    except (OSError, ValueError, KeyError, TypeError) as e:
        return OpResult(op, seconds, f"unreadable report: {type(e).__name__}: {e}",
                        wrong=True)
    if verdict != op.verdict:
        return OpResult(op, seconds, f"verdict {verdict!r}, expected {op.verdict!r}",
                        wrong=True)
    if breach is not None:
        return OpResult(op, seconds, breach, wrong=True)
    return OpResult(op, seconds)


def run_pass(ops: list[Op], after_op=None) -> list[OpResult]:
    """One closed-loop pass over the operation list; ``after_op()``, when
    given, runs after each op, outside its timing."""
    results = []
    for op in ops:
        results.append(execute(op))
        if after_op is not None:
            after_op()
    return results


def op_samples(passes: list[list[OpResult]]) -> dict[Op, list[float]]:
    """Every latency each distinct op had over the run's passes."""
    samples: dict[Op, list[float]] = {}
    for results in passes:
        for r in results:
            samples.setdefault(r.op, []).append(r.seconds)
    return samples


def pass_seconds(ops: list[Op], samples: dict[Op, list[float]]) -> dict[str, float]:
    """One pass with every op at its mean latency of the run: in total
    (``wall``) and per command kind."""
    mean = {op: statistics.fmean(xs) for op, xs in samples.items()}
    sums = dict.fromkeys(("wall",) + KINDS, 0.0)
    for op in ops:
        sums["wall"] += mean[op]
        sums[op.kind] += mean[op]
    return sums


def summary(values: list[float]) -> dict:
    """Mean, median, quartiles, sample count and the highest percentile
    that has at least ten samples beyond it (when the count allows one)."""
    n = len(values)
    out = {"n": n, "mean": statistics.fmean(values), "median": statistics.median(values)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if n > 10:
        pct = 100 * (n - 10) // n
        k = max(0, -(-pct * n // 100) - 1)  # nearest-rank index
        out[f"p{pct}"] = sorted(values)[k]
    return out
