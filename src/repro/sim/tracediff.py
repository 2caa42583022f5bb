"""Dispatch-stream tracer and differ.

The engine promises that a given workload dispatches the exact same
``(time, priority, seq, event)`` stream on every run, and that refactors
of the calendar or the run loops leave that stream unchanged.  This module
turns the promise into a checkable artifact: run a scenario with the
engine's ``trace`` hook attached (:func:`trace_scenario`), fingerprint the
stream (:func:`stream_digest`), and, given two streams — say from two
commits — report the first dispatch where they diverge, with context
(:func:`diff_streams`, :func:`format_report`).

Used three ways:

* the dispatch-stream goldens (``tests/sim/test_dispatch_goldens.py``)
  pin :func:`stream_digest` of the quickstart / multiost / fault /
  centralized-mechanism streams;
* ``examples/profiling_walkthrough.py --diff`` prints a scenario's digest,
  so two checkouts can be compared from the command line;
* when a digest moves, :func:`format_report` over the two streams
  pinpoints the first divergent dispatch instead of leaving you bisecting
  CSVs.

Events are keyed by ``(time, priority, seq, type-name)``; the object
identity of the event necessarily differs between two runs, but under the
engine's determinism invariant the sequence numbers fix the schedule, so a
type-level match at every seq is exactly as strong as object-level
equality within one run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "TraceEntry",
    "Divergence",
    "DiffReport",
    "trace_scenario",
    "stream_digest",
    "first_divergence",
    "diff_streams",
    "format_report",
]

#: One dispatched event: ``(time, priority, seq, event type name)``.
TraceEntry = Tuple[float, int, int, str]

#: Context lines shown on each side of a divergence.
_CONTEXT = 3


@dataclass(frozen=True, slots=True)
class Divergence:
    """The first position where two dispatch streams disagree."""

    #: Index into the dispatch streams (0-based).
    index: int
    #: Entry of the first stream at ``index`` (None when it ended early).
    left: Optional[TraceEntry]
    #: Entry of the second stream at ``index`` (None when it ended early).
    right: Optional[TraceEntry]


@dataclass(frozen=True, slots=True)
class DiffReport:
    """Outcome of comparing two dispatch streams of one scenario."""

    scenario: str
    labels: Tuple[str, str]
    counts: Tuple[int, int]
    divergence: Optional[Divergence]
    #: A few entries before/after the divergence from each stream, for
    #: human consumption via :func:`format_report`.
    context: Tuple[Sequence[TraceEntry], Sequence[TraceEntry]] = ((), ())

    @property
    def equal(self) -> bool:
        return self.divergence is None


def trace_scenario(scenario) -> List[TraceEntry]:
    """Run ``scenario`` and return its dispatch stream.

    ``scenario`` is a registered scenario name or a built
    :class:`~repro.scenarios.spec.ScenarioSpec`.
    """
    # Local imports: tracediff sits in the sim layer but drives the full
    # scenario stack; importing lazily keeps the engine import-light.
    from repro.cluster.builder import build
    from repro.cluster.experiment import execute
    from repro.scenarios import REGISTRY
    from repro.scenarios.spec import ScenarioSpec

    if isinstance(scenario, str):
        spec = REGISTRY.build(scenario)
    elif isinstance(scenario, ScenarioSpec):
        spec = scenario
    else:
        raise TypeError(
            f"scenario must be a name or ScenarioSpec, got {scenario!r}"
        )

    cluster = build(spec)
    entries: List[TraceEntry] = []
    append = entries.append
    cluster.env.trace = lambda when, priority, seq, event: append(
        (when, priority, seq, type(event).__name__)
    )
    execute(cluster)
    return entries


def stream_digest(stream: Sequence[TraceEntry]) -> str:
    """SHA-256 hex digest of a dispatch stream (order-sensitive).

    Times are hashed through ``repr``, which round-trips floats exactly, so
    two streams share a digest only if every entry is bit-identical.
    """
    digest = hashlib.sha256()
    for when, priority, seq, name in stream:
        digest.update(f"{when!r} {priority} {seq} {name}\n".encode())
    return digest.hexdigest()


def first_divergence(
    left: Sequence[TraceEntry], right: Sequence[TraceEntry]
) -> Optional[Divergence]:
    """First index where two dispatch streams disagree, or None.

    A stream that is a strict prefix of the other diverges at the shorter
    stream's length (the missing side is reported as ``None``).
    """
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return Divergence(index=index, left=a, right=b)
    if len(left) != len(right):
        index = min(len(left), len(right))
        return Divergence(
            index=index,
            left=left[index] if index < len(left) else None,
            right=right[index] if index < len(right) else None,
        )
    return None


def diff_streams(
    scenario: str,
    left: Sequence[TraceEntry],
    right: Sequence[TraceEntry],
    labels: Tuple[str, str] = ("left", "right"),
) -> DiffReport:
    """Compare two dispatch streams of ``scenario``."""
    divergence = first_divergence(left, right)
    context: Tuple[Sequence[TraceEntry], Sequence[TraceEntry]] = ((), ())
    if divergence is not None:
        lo = max(0, divergence.index - _CONTEXT)
        hi = divergence.index + _CONTEXT + 1
        context = (tuple(left[lo:hi]), tuple(right[lo:hi]))
    return DiffReport(
        scenario=scenario,
        labels=labels,
        counts=(len(left), len(right)),
        divergence=divergence,
        context=context,
    )


def format_report(report: DiffReport) -> str:
    """Human-readable rendering of a :class:`DiffReport`."""
    a, b = report.labels
    if report.equal:
        return (
            f"{report.scenario}: {a} and {b} dispatched identical streams "
            f"({report.counts[0]} events)"
        )
    div = report.divergence
    assert div is not None
    lines = [
        f"{report.scenario}: {a} and {b} DIVERGE at dispatch #{div.index}",
        f"  {a}: {div.left!r}  (stream length {report.counts[0]})",
        f"  {b}: {div.right!r}  (stream length {report.counts[1]})",
    ]
    left_ctx, right_ctx = report.context
    if left_ctx or right_ctx:
        lines.append(f"  context ({a}):")
        lines.extend(f"    {entry!r}" for entry in left_ctx)
        lines.append(f"  context ({b}):")
        lines.extend(f"    {entry!r}" for entry in right_ctx)
    return "\n".join(lines)
