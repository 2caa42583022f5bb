"""Tests for cluster assembly and the experiment runner."""

import pytest

from repro.cluster.builder import build
from repro.lustre.nrs import FifoPolicy, TbfPolicy
from repro.scenarios import REGISTRY, PolicySpec, ScenarioSpec, TopologySpec, run_scenario
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.spec import JobSpec, ProcessSpec

MIB = 1 << 20


def tiny_spec(n=2, volume=10 * MIB, nodes=(1, 3)):
    jobs = [
        JobSpec(
            job_id=f"j{i}",
            nodes=nodes[i % len(nodes)],
            processes=(ProcessSpec(SequentialWritePattern(volume)),),
        )
        for i in range(n)
    ]
    return ScenarioSpec(name="tiny", jobs=tuple(jobs))


class TestTopologySpec:
    def test_token_rate_follows_capacity(self):
        topology = TopologySpec(capacity_mib_s=512.0, rpc_size=MIB)
        assert topology.max_token_rate() == pytest.approx(512.0)

    def test_half_mib_rpcs_double_token_rate(self):
        topology = TopologySpec(capacity_mib_s=512.0, rpc_size=MIB // 2)
        assert topology.max_token_rate() == pytest.approx(1024.0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TopologySpec(capacity_mib_s=0)
        with pytest.raises(ValueError):
            TopologySpec(rpc_size=0)
        with pytest.raises(ValueError):
            PolicySpec(variant="bogus")


class TestBuild:
    def test_none_uses_fifo(self):
        cluster = build(tiny_spec().with_policy(mechanism="none"))
        (handle,) = cluster.handles
        assert isinstance(cluster.osses[0].policy, FifoPolicy)
        assert handle.adaptbf is None
        assert handle.static_rates is None

    def test_static_installs_rules(self):
        cluster = build(tiny_spec().with_policy(mechanism="static"))
        (handle,) = cluster.handles
        assert isinstance(cluster.osses[0].policy, TbfPolicy)
        rates = handle.static_rates
        assert set(rates) == {"j0", "j1"}
        # 1:3 node split of the token budget.
        assert rates["j1"] == pytest.approx(3 * rates["j0"])

    def test_adaptbf_attaches_framework(self):
        cluster = build(tiny_spec().with_policy(mechanism="adaptbf"))
        adaptbf = cluster.handles[0].adaptbf
        assert adaptbf is not None
        assert adaptbf.controller.nodes == {"j0": 1, "j1": 3}

    def test_ablation_variant_injected(self):
        cluster = build(
            tiny_spec().with_policy(mechanism="adaptbf", variant="priority_only")
        )
        assert not cluster.handles[0].adaptbf.algorithm.enable_redistribution

    def test_one_client_per_process(self):
        jobs = (
            JobSpec(
                job_id="j",
                nodes=1,
                processes=tuple(
                    ProcessSpec(SequentialWritePattern(MIB)) for _ in range(5)
                ),
            ),
        )
        cluster = build(ScenarioSpec(name="five", jobs=jobs))
        assert len(cluster.clients) == 5


class TestRunScenario:
    def test_run_to_completion(self):
        result = run_scenario(
            tiny_spec(volume=50 * MIB)
            .with_policy(mechanism="none")
            .with_topology(capacity_mib_s=100)
        )
        assert result.clients_finished
        assert result.timeline.total_bytes() == 100 * MIB
        assert set(result.job_completion_s) == {"j0", "j1"}
        assert result.summary.aggregate_mib_s > 0

    def test_result_carries_its_spec(self):
        spec = tiny_spec().with_policy(mechanism="none")
        result = run_scenario(spec)
        assert result.spec is spec
        assert result.mechanism == "none"

    def test_duration_cap_truncates(self):
        result = run_scenario(
            tiny_spec(volume=100 * MIB)
            .with_policy(mechanism="none")
            .with_topology(capacity_mib_s=10)
            .with_run(duration_s=2.0)
        )
        assert not result.clients_finished
        assert result.duration_s == 2.0
        # Processor sharing: the first 16 concurrent 1-MiB RPCs all complete
        # together at ~1.6 s, so ~16 MiB lands inside the 2 s cap.
        assert 10 * MIB <= result.timeline.total_bytes() <= 25 * MIB

    def test_adaptbf_history_captured(self):
        result = run_scenario(
            tiny_spec(volume=30 * MIB)
            .with_policy(mechanism="adaptbf")
            .with_topology(capacity_mib_s=100)
        )
        assert len(result.history) > 0
        assert result.record_series("j0")
        assert result.demand_series("j0")

    def test_baseline_history_empty(self):
        result = run_scenario(
            tiny_spec(volume=10 * MIB)
            .with_policy(mechanism="none")
            .with_topology(capacity_mib_s=100)
        )
        assert result.history == []

    def test_utilization_reported(self):
        result = run_scenario(
            tiny_spec(volume=50 * MIB)
            .with_policy(mechanism="none")
            .with_topology(capacity_mib_s=100)
        )
        # Saturating FIFO workload: utilization near 1.
        assert result.ost_utilization == pytest.approx(1.0, abs=0.1)

    def test_registered_paper_mix(self):
        spec = REGISTRY.build(
            "allocation", data_scale=1 / 512, heavy_procs=2
        ).with_topology(capacity_mib_s=256)
        result = run_scenario(spec)
        assert result.clients_finished
        assert set(result.job_completion_s) == {
            "job1",
            "job2",
            "job3",
            "job4",
        }
