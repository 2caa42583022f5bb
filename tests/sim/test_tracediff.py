"""Unit tests for the dispatch-stream differ (pure comparison logic).

The heavyweight end-to-end use — digests of real scenario streams — lives
in ``test_dispatch_goldens.py``; here the divergence detection and report
formatting are pinned on hand-built streams.
"""

import pytest

from repro.sim.tracediff import (
    DiffReport,
    Divergence,
    diff_streams,
    first_divergence,
    format_report,
    stream_digest,
    trace_scenario,
)


def entry(t, seq, name="Timeout"):
    return (t, 1, seq, name)


class TestFirstDivergence:
    def test_equal_streams(self):
        stream = [entry(0.1, 1), entry(0.2, 2)]
        assert first_divergence(stream, list(stream)) is None

    def test_empty_streams_are_equal(self):
        assert first_divergence([], []) is None

    def test_mismatched_entry_reported_at_index(self):
        left = [entry(0.1, 1), entry(0.2, 2), entry(0.3, 3)]
        right = [entry(0.1, 1), entry(0.2, 2, "Event"), entry(0.3, 3)]
        div = first_divergence(left, right)
        assert div == Divergence(index=1, left=left[1], right=right[1])

    def test_prefix_diverges_at_shorter_length(self):
        left = [entry(0.1, 1)]
        right = [entry(0.1, 1), entry(0.2, 2)]
        div = first_divergence(left, right)
        assert div == Divergence(index=1, left=None, right=right[1])

    def test_prefix_other_direction(self):
        left = [entry(0.1, 1), entry(0.2, 2)]
        div = first_divergence(left, [entry(0.1, 1)])
        assert div == Divergence(index=1, left=left[1], right=None)


class TestFormatReport:
    def _report(self, divergence, counts=(3, 3), context=((), ())):
        return DiffReport(
            scenario="demo",
            labels=("parent", "change"),
            counts=counts,
            divergence=divergence,
            context=context,
        )

    def test_clean_report(self):
        report = self._report(None)
        assert report.equal
        text = format_report(report)
        assert "identical streams" in text
        assert "demo" in text

    def test_divergent_report_names_index_and_sides(self):
        div = Divergence(index=1, left=entry(0.2, 2), right=entry(0.3, 2))
        report = self._report(
            div, counts=(3, 4), context=((entry(0.1, 1),), (entry(0.1, 1),))
        )
        assert not report.equal
        text = format_report(report)
        assert "DIVERGE at dispatch #1" in text
        assert "stream length 3" in text
        assert "stream length 4" in text
        assert "context (parent)" in text
        assert "context (change)" in text


class TestDiffStreams:
    def test_equal_streams_report_clean(self):
        stream = [entry(0.1, 1), entry(0.2, 2)]
        report = diff_streams("demo", stream, list(stream))
        assert report.equal
        assert report.labels == ("left", "right")
        assert report.counts == (2, 2)

    def test_divergence_carries_context_from_both_sides(self):
        left = [entry(0.1 * i, i) for i in range(10)]
        right = list(left)
        right[6] = entry(0.6, 6, "Event")
        report = diff_streams("demo", left, right, labels=("a", "b"))
        assert report.divergence.index == 6
        assert report.context == (tuple(left[3:10]), tuple(right[3:10]))
        assert "a and b DIVERGE at dispatch #6" in format_report(report)


class TestStreamDigest:
    def test_digest_is_order_sensitive(self):
        stream = [entry(0.1, 1), entry(0.2, 2)]
        assert stream_digest(stream) == stream_digest(list(stream))
        assert stream_digest(stream) != stream_digest(stream[::-1])

    def test_digest_sees_float_bits(self):
        assert stream_digest([entry(0.3, 1)]) != stream_digest(
            [entry(0.1 + 0.2, 1)]
        )


class TestTraceScenario:
    def test_rejects_non_scenario(self):
        with pytest.raises(TypeError, match="name or ScenarioSpec"):
            trace_scenario(42)

    def test_same_spec_traces_identically(self):
        from repro.scenarios import REGISTRY

        spec = REGISTRY.build("quickstart").with_run(duration_s=0.2)
        left = trace_scenario(spec)
        assert left and diff_streams("quickstart", left, trace_scenario(spec)).equal
