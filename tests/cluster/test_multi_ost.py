"""Multi-OST decentralized deployment tests (paper §II-B).

The paper's argument: if bandwidth sharing on every *local* target is fair
and work-conserving, the cumulative effect over all targets is globally
fair without any cross-server coordination.  These tests run AdapTBF with
one independent controller per OST and verify exactly that.
"""

import pytest

from repro.cluster.builder import build
from repro.scenarios import ScenarioSpec, TopologySpec, run_scenario
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.spec import JobSpec, ProcessSpec

MIB = 1 << 20


def spec_16proc(volume=64 * MIB, nodes=(1, 3)):
    jobs = tuple(
        JobSpec(
            job_id=f"j{i}",
            nodes=n,
            processes=tuple(
                ProcessSpec(SequentialWritePattern(volume)) for _ in range(8)
            ),
        )
        for i, n in enumerate(nodes)
    )
    return ScenarioSpec(name="multi-ost", jobs=jobs)


class TestMultiOstBuild:
    def test_builds_independent_stacks(self):
        cluster = build(
            spec_16proc().with_policy(mechanism="adaptbf").with_topology(n_osts=4)
        )
        assert len(cluster.osts) == 4
        assert len(cluster.osses) == 4
        controllers = [handle.adaptbf for handle in cluster.handles]
        assert len(controllers) == 4
        # Controllers share no allocator state.
        algos = {id(c.algorithm) for c in controllers}
        assert len(algos) == 4

    def test_round_robin_file_placement(self):
        cluster = build(
            spec_16proc().with_policy(mechanism="none").with_topology(n_osts=4)
        )
        # 16 files over 4 OSTs round-robin: each OST serves 4 files.
        placements = [c.io.layout.targets[0] for c in cluster.clients]
        counts = {oss.ost.name: placements.count(oss) for oss in cluster.osses}
        assert set(counts.values()) == {4}

    def test_stripe_count_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(n_osts=2, stripe_count=3)
        with pytest.raises(ValueError):
            TopologySpec(n_osts=0)

    def test_static_rules_installed_per_ost(self):
        cluster = build(
            spec_16proc().with_policy(mechanism="static").with_topology(n_osts=3)
        )
        assert len(cluster.handles) == 3
        for handle in cluster.handles:
            assert set(handle.static_rates) == {"j0", "j1"}


class TestDecentralizedFairness:
    def test_global_shares_track_priority_without_coordination(self):
        """§II-B: local fairness on each OST composes into global fairness.

        Both jobs carry enough volume to stay backlogged through the whole
        window, so the measured bandwidths reflect the steady-state shares
        (a finished job would hand its share back and compress the ratio).
        """
        result = run_scenario(
            spec_16proc(volume=400 * MIB, nodes=(1, 3))
            .with_policy(mechanism="adaptbf")
            .with_topology(n_osts=4, capacity_mib_s=256)
            .with_run(duration_s=2.0)
        )
        bw = result.summary
        assert not result.clients_finished  # both still writing at the cap
        ratio = bw.job("j1") / bw.job("j0")
        assert 2.0 < ratio < 4.5, ratio

    def test_each_ost_runs_its_own_rounds(self):
        result = run_scenario(
            spec_16proc(volume=32 * MIB)
            .with_policy(mechanism="adaptbf")
            .with_topology(n_osts=3, capacity_mib_s=256)
            .with_run(duration_s=1.0)
        )
        assert len(result.per_ost_histories) == 3
        for history in result.per_ost_histories:
            assert len(history) >= 5  # ~10 rounds in 1 s at 100 ms

    def test_striped_files_reach_all_osts(self):
        result = run_scenario(
            spec_16proc(volume=32 * MIB)
            .with_policy(mechanism="adaptbf")
            .with_topology(n_osts=2, stripe_count=2, capacity_mib_s=256)
            .with_run(duration_s=2.0)
        )
        # Both OSTs' controllers saw both jobs.
        for history in result.per_ost_histories:
            seen = set()
            for round_ in history:
                seen.update(round_.demands)
            assert seen == {"j0", "j1"}

    def test_multi_ost_aggregate_scales(self):
        """Two OSTs deliver ~2x one OST's bandwidth for the same workload."""
        spec = (
            spec_16proc(volume=64 * MIB)
            .with_policy(mechanism="none")
            .with_topology(capacity_mib_s=128)
            .with_run(duration_s=2.0)
        )
        one = run_scenario(spec)
        two = run_scenario(spec.with_topology(n_osts=2))
        assert two.summary.aggregate_mib_s > 1.6 * one.summary.aggregate_mib_s
