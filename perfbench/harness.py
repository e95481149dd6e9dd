"""Repetition loop of the benchmark: time the ops, then check them.

Standard library only; ``CheckError`` is the exception a failed check raises.
"""
from __future__ import annotations

import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field


class CheckError(Exception):
    """An operation's result failed its correctness check."""


@dataclass
class Tally:
    """Attempted and failed operations, and the outputs of the first
    repetition that later repetitions must reproduce byte for byte."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    fingerprints: dict[str, dict] = field(default_factory=dict)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_rep(ops, tracer=None):
    """Run every op once; returns wall seconds, CPU seconds (user + system,
    all threads) and ``(ok, value)`` per op.  Nothing is checked here."""
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        try:
            value = op.run() if tracer is None else tracer.span(f"op.{op.name}", op.run)
        except Exception:  # an op that raises is a failed op, not a crash
            results.append((False, traceback.format_exc(limit=-1).strip()))
        else:
            results.append((True, value))
    return time.perf_counter() - wall0, time.process_time() - cpu0, results


def check_rep(ops, results, tally: Tally) -> None:
    """Check each result after the timing stopped."""
    for op, (ok, value) in zip(ops, results):
        tally.attempted += 1
        reason = None if ok else f"raised {value}"
        if ok:
            try:
                op.check(value)
                fingerprint = op.fingerprint(value)
            except CheckError as exc:
                reason = str(exc)
            except Exception:  # a check that crashes fails its op
                reason = "check raised " + traceback.format_exc(limit=-1).strip()
            else:
                first = tally.fingerprints.setdefault(op.name, fingerprint)
                if fingerprint != first:
                    reason = "output differs from the first repetition of this seed"
        if reason is not None:
            tally.failed += 1
            tally.failures.append(f"{op.name}: {reason}")


def measure(ops, seconds: float, tally: Tally, tracer=None):
    """Repeat the ops until ``seconds`` have passed (at least once).

    With a tracer its wrappers are installed for the timed part of each
    repetition only, so the checks are not traced.  Returns the wall and
    CPU seconds of every repetition and the peak resident memory in MB as
    it stood when the first repetition's timing stopped, before any check
    could raise it.
    """
    walls, cpus, peak_rss_mb = [], [], None
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
        try:
            wall, cpu, results = run_rep(ops, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        walls.append(wall)
        cpus.append(cpu)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_rep(ops, results, tally)
        del results
        if time.perf_counter() - begin >= seconds:
            return walls, cpus, peak_rss_mb


def summary(values) -> dict:
    """Median, quartiles and sample count."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
