"""Tests for the pluggable bandwidth-mechanism API (protocol + registry)."""

import pickle

import pytest

from repro.cluster.builder import build
from repro.core.mechanism import (
    MECHANISMS,
    AdapTbfMechanism,
    BandwidthMechanism,
    MechanismHandle,
    PeriodicDriver,
)
from repro.core.prediction import EwmaEstimator
from repro.lustre.nrs import FifoPolicy, TbfPolicy
from repro.scenarios.spec import PolicySpec, ScenarioSpec, TopologySpec
from repro.sim.engine import Environment
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.spec import JobSpec, ProcessSpec

MIB = 1 << 20


def tiny_jobs(n=2, volume=8 * MIB):
    return tuple(
        JobSpec(
            job_id=f"j{i}",
            nodes=i + 1,
            processes=(ProcessSpec(SequentialWritePattern(volume)),),
        )
        for i in range(n)
    )


def spec_for(mechanism, **params):
    return ScenarioSpec(
        name="t",
        jobs=tiny_jobs(),
        policy=PolicySpec(mechanism=mechanism, mechanism_params=params),
    )


class TestRegistry:
    def test_builtins_registered(self):
        names = MECHANISMS.names()
        for expected in (
            "none",
            "static",
            "adaptbf",
            "adaptbf-ewma",
            "pid",
            "sdn",
            "vc",
        ):
            assert expected in names

    def test_build_stamps_name_and_params(self):
        mechanism = MECHANISMS.build("pid", kp=0.9)
        assert mechanism.name == "pid"
        assert mechanism.params["kp"] == 0.9
        assert "ki" in mechanism.params  # defaults resolved too

    def test_unknown_mechanism(self):
        with pytest.raises(KeyError, match="unknown mechanism"):
            MECHANISMS.get("bogus")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            MECHANISMS.build("pid", bogus=1)

    def test_describe_lists_parameters(self):
        text = MECHANISMS.describe("adaptbf-ewma")
        assert "alpha" in text
        assert "mechanism: adaptbf-ewma" in text

    def test_runtime_registration_round_trip(self):
        @MECHANISMS.register("test-noop", description="registered by a test")
        def _factory() -> BandwidthMechanism:
            class _Noop(BandwidthMechanism):
                def install(self, env, oss, spec, ost_index=0, algorithm_factory=None):
                    return _Handle(self, oss, ost_index)

            class _Handle(MechanismHandle):
                pass

            return _Noop()

        try:
            policy = PolicySpec(mechanism="test-noop")
            assert policy.mechanism == "test-noop"
            cluster = build(
                ScenarioSpec(name="t", jobs=tiny_jobs(), policy=policy)
            )
            assert len(cluster.handles) == 1
            assert cluster.handles[0].adaptbf is None
        finally:
            MECHANISMS.unregister("test-noop")


class TestPolicySpecIntegration:
    def test_mechanism_params_frozen_and_canonical(self):
        policy = PolicySpec(mechanism="pid", mechanism_params={"ki": 0.2, "kp": 0.9})
        assert policy.mechanism_params == (("ki", 0.2), ("kp", 0.9))
        assert policy.mechanism_kwargs == {"kp": 0.9, "ki": 0.2}
        hash(policy)  # stays hashable despite the mapping input

    def test_mechanism_params_validated_against_schema(self):
        with pytest.raises(ValueError, match="no parameter"):
            PolicySpec(mechanism="pid", mechanism_params={"bogus": 1})

    def test_unknown_mechanism_lists_options(self):
        with pytest.raises(ValueError, match="registered"):
            PolicySpec(mechanism="bogus")

    def test_resolve_mechanism_applies_overrides(self):
        policy = PolicySpec(mechanism="adaptbf-ewma", mechanism_params={"alpha": 0.7})
        mechanism = policy.resolve_mechanism()
        assert mechanism.alpha == 0.7

    def test_spec_with_params_pickles(self):
        spec = spec_for("pid", kp=0.5)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.policy.mechanism_kwargs == {"kp": 0.5}

    def test_switching_mechanism_resets_stale_params(self):
        """Params belong to a factory schema; they don't survive a switch."""
        spec = spec_for("adaptbf-ewma", alpha=0.2)
        switched = spec.with_policy(mechanism="pid")
        assert switched.policy.mechanism_params == ()
        # Same-mechanism updates keep the params...
        kept = spec.with_policy(interval_s=0.2)
        assert kept.policy.mechanism_kwargs == {"alpha": 0.2}
        same = spec.with_policy(mechanism="adaptbf-ewma")
        assert same.policy.mechanism_kwargs == {"alpha": 0.2}
        # ...and an explicit mechanism_params always wins.
        explicit = spec.with_policy(
            mechanism="pid", mechanism_params={"kp": 0.9}
        )
        assert explicit.policy.mechanism_kwargs == {"kp": 0.9}


class TestBuildIntegration:
    def test_none_uses_fifo(self):
        cluster = build(spec_for("none"))
        (handle,) = cluster.handles
        assert isinstance(cluster.osses[0].policy, FifoPolicy)
        assert handle.adaptbf is None
        assert handle.static_rates is None
        assert cluster.handles[0].history is None

    def test_static_exposes_rates(self):
        cluster = build(spec_for("static"))
        assert isinstance(cluster.osses[0].policy, TbfPolicy)
        rates = cluster.handles[0].static_rates
        assert sum(rates.values()) == pytest.approx(1024.0)

    def test_adaptbf_handles_expose_controllers(self):
        spec = ScenarioSpec(
            name="t",
            jobs=tiny_jobs(),
            topology=TopologySpec(n_osts=2),
        )
        cluster = build(spec)
        assert len(cluster.handles) == 2
        controllers = [handle.adaptbf for handle in cluster.handles]
        assert None not in controllers
        assert controllers[0] is not controllers[1]
        assert cluster.mechanism.name == "adaptbf"

    def test_variant_param_overrides_policy_variant(self):
        cluster = build(spec_for("adaptbf", variant="priority_only"))
        assert not cluster.handles[0].adaptbf.algorithm.enable_redistribution

    def test_ewma_wires_estimator(self):
        cluster = build(spec_for("adaptbf-ewma", alpha=0.3))
        estimator = cluster.handles[0].adaptbf.algorithm.demand_estimator
        assert isinstance(estimator, EwmaEstimator)
        assert estimator.alpha == 0.3

    def test_algorithm_factory_still_wins(self):
        from repro.core.allocation import TokenAllocationAlgorithm

        marker = TokenAllocationAlgorithm()
        cluster = build(
            spec_for("adaptbf-ewma"), algorithm_factory=lambda: marker
        )
        assert cluster.handles[0].adaptbf.algorithm is marker


class TestAdapTbfHandleHooks:
    """The protocol's observe/allocate/apply single-steps one round."""

    def _loaded_cluster(self):
        cluster = build(spec_for("adaptbf"))
        env = cluster.env
        # Let clients issue some RPCs but stop before the first round.
        env.run(until=0.05)
        return cluster

    def test_observe_reports_demands_without_clearing(self):
        cluster = self._loaded_cluster()
        handle = cluster.handles[0]
        first = handle.observe()
        assert first and all(d > 0 for d in first.values())
        assert handle.observe() == first  # read-only

    def test_allocate_then_apply_installs_rules(self):
        cluster = self._loaded_cluster()
        handle = cluster.handles[0]
        demands = handle.observe()
        rates = handle.allocate(demands)
        assert set(rates) == set(demands)
        assert all(rate > 0 for rate in rates.values())
        assert handle.oss.policy.rule_names() == []
        handle.apply(rates)
        assert len(handle.oss.policy.rule_names()) == len(rates)

    def test_teardown_stops_rules_and_loop(self):
        spec = ScenarioSpec(
            name="t",
            jobs=tiny_jobs(volume=512 * MIB),  # outlives the sampling window
            policy=PolicySpec(mechanism="adaptbf"),
        )
        cluster = build(spec)
        env = cluster.env
        env.run(until=0.35)  # a few allocation rounds
        handle = cluster.handles[0]
        rounds_before = handle.rounds_run
        assert handle.oss.policy.rule_names()
        handle.teardown()
        assert handle.oss.policy.rule_names() == []
        env.run(until=0.85)
        assert handle.rounds_run == rounds_before  # loop is dead


class TestPeriodicDriver:
    def test_drives_hooks_and_counts_rounds(self):
        env = Environment()
        calls = []

        class _Probe(MechanismHandle):
            def observe(self):
                calls.append("observe")
                return {"j": 1}

            def allocate(self, demands):
                calls.append("allocate")
                return {"j": 10.0}

            def apply(self, rates):
                calls.append("apply")

        mechanism = AdapTbfMechanism()
        mechanism.name = "probe"
        driver = PeriodicDriver(env, _Probe(mechanism, None, 0), interval_s=0.1)
        env.run(until=0.35)
        assert driver.rounds_run == 3
        assert calls[:3] == ["observe", "allocate", "apply"]
        driver.stop()
        env.run(until=1.0)
        assert driver.rounds_run == 3

    def test_validates_timing(self):
        env = Environment()
        mechanism = AdapTbfMechanism()
        handle = _inert(mechanism)
        with pytest.raises(ValueError, match="interval"):
            PeriodicDriver(env, handle, interval_s=0.0)
        with pytest.raises(ValueError, match="overhead"):
            PeriodicDriver(env, handle, interval_s=0.1, overhead_s=0.1)


def _inert(mechanism):
    class _Handle(MechanismHandle):
        pass

    return _Handle(mechanism, None, 0)


class TestPidMechanism:
    def test_runs_and_manages_rules(self):
        from repro.scenarios.runner import run_scenario

        result = run_scenario(spec_for("pid"))
        assert result.mechanism == "pid"
        assert result.clients_finished
        assert result.summary.aggregate_mib_s > 0
        assert result.history == []  # no allocation-round history kept

    def test_feedback_throttles_overserving_job(self):
        cluster = build(
            ScenarioSpec(
                name="t",
                jobs=tiny_jobs(n=2, volume=512 * MIB),
                policy=PolicySpec(mechanism="pid"),
            )
        )
        cluster.env.run(until=0.55)  # mid-run: both jobs still active
        handle = cluster.handles[0]
        assert handle.rounds_run >= 5
        assert handle.rules_created >= 2
        rules = {
            name: cluster.osses[0].policy.get_rule(name)
            for name in cluster.osses[0].policy.rule_names()
        }
        # j1 (2 nodes) is entitled to twice j0's share; feedback must order
        # the live rates accordingly.
        assert rules["pid_j1"].rate > rules["pid_j0"].rate

    def test_invalid_gains_rejected(self):
        with pytest.raises(ValueError, match="leak"):
            MECHANISMS.build("pid", leak=1.5)
        with pytest.raises(ValueError, match="floor_share"):
            MECHANISMS.build("pid", floor_share=0.0)


class TestRunMechanismsExtended:
    def test_any_registered_subset(self):
        from repro.scenarios.runner import run_mechanisms

        spec = spec_for("adaptbf")
        results = run_mechanisms(spec, mechanisms=("none", "pid"))
        assert set(results) == {"none", "pid"}
        for name, result in results.items():
            assert result.mechanism == name
