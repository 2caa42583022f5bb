"""Tests for CampaignSpec: axis composition, seeds, resolution, identity."""

import pytest

from repro.campaigns import (
    CAMPAIGNS,
    CampaignSpec,
    ParameterAxis,
    derive_cell_seed,
)
from repro.scenarios.spec import ScenarioSpec


def grid_campaign(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="t",
        scenario="quickstart",
        axes=(
            ParameterAxis("capacity_mib_s", (512.0, 1024.0)),
            ParameterAxis("interval_s", (0.05, 0.1, 0.2)),
        ),
        base_params={"file_mib": 16.0},
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestAxisComposition:
    def test_grid_is_cartesian_product(self):
        campaign = grid_campaign()
        cells = campaign.cells()
        assert campaign.n_cells == len(cells) == 6
        combos = {
            (c.params["capacity_mib_s"], c.params["interval_s"]) for c in cells
        }
        assert len(combos) == 6

    def test_grid_order_is_row_major_and_indexed(self):
        cells = grid_campaign().cells()
        assert [c.index for c in cells] == list(range(6))
        # First axis varies slowest (itertools.product order).
        assert [c.params["capacity_mib_s"] for c in cells[:3]] == [512.0] * 3

    def test_zip_advances_axes_in_lockstep(self):
        campaign = grid_campaign(
            mode="zip",
            axes=(
                ParameterAxis("capacity_mib_s", (512.0, 1024.0)),
                ParameterAxis("interval_s", (0.05, 0.1)),
            ),
        )
        cells = campaign.cells()
        assert campaign.n_cells == len(cells) == 2
        assert cells[0].params == {"capacity_mib_s": 512.0, "interval_s": 0.05}
        assert cells[1].params == {"capacity_mib_s": 1024.0, "interval_s": 0.1}

    def test_zip_rejects_ragged_axes(self):
        with pytest.raises(ValueError, match="equal-length"):
            grid_campaign(mode="zip")  # 2 vs 3 values

    def test_random_sampling_is_seed_deterministic(self):
        campaign = grid_campaign(mode="random", samples=5, seed=42)
        first = [c.params for c in campaign.cells()]
        again = [c.params for c in campaign.cells()]
        assert first == again
        other_seed = grid_campaign(mode="random", samples=5, seed=43)
        assert campaign.n_cells == other_seed.n_cells == 5
        # Not a guarantee in general, but for these axes/seeds the draws
        # differ — the stream really depends on the campaign seed.
        assert first != [c.params for c in other_seed.cells()]

    def test_random_requires_samples(self):
        with pytest.raises(ValueError, match="samples"):
            grid_campaign(mode="random")

    def test_samples_rejected_outside_random(self):
        with pytest.raises(ValueError, match="samples"):
            grid_campaign(samples=3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign mode"):
            grid_campaign(mode="sweep")

    def test_axis_base_param_overlap_rejected(self):
        with pytest.raises(ValueError, match="both as an axis"):
            grid_campaign(base_params={"interval_s": 0.1})

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis"):
            grid_campaign(
                axes=(
                    ParameterAxis("interval_s", (0.05,)),
                    ParameterAxis("interval_s", (0.1,)),
                )
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            ParameterAxis("x", ())


class TestCellSeeds:
    def test_seeds_derived_from_campaign_seed_and_index(self):
        cells = grid_campaign(seed=7).cells()
        assert [c.seed for c in cells] == [
            derive_cell_seed(7, i) for i in range(len(cells))
        ]

    def test_seeds_unique_across_cells(self):
        cells = grid_campaign().cells()
        assert len({c.seed for c in cells}) == len(cells)

    def test_derivation_is_stable(self):
        # Pinned: workers, re-runs and manifests must always agree.
        assert derive_cell_seed(0, 0) == derive_cell_seed(0, 0)
        assert derive_cell_seed(0, 0) != derive_cell_seed(0, 1)
        assert derive_cell_seed(0, 1) != derive_cell_seed(1, 1)


class TestResolution:
    def test_resolve_applies_base_and_axis_params(self):
        campaign = grid_campaign()
        cell = campaign.cells()[0]
        spec = campaign.resolve(cell)
        assert isinstance(spec, ScenarioSpec)
        assert spec.topology.capacity_mib_s == cell.params["capacity_mib_s"]
        assert spec.policy.interval_s == cell.params["interval_s"]
        # base_params: file_mib=16 -> 16 MiB per process file.
        assert spec.jobs[0].processes[0].pattern.total_bytes == 16 * (1 << 20)

    def test_resolve_stamps_cell_seed_into_run_spec(self):
        campaign = grid_campaign()
        cell = campaign.cells()[2]
        assert campaign.resolve(cell).run.seed == cell.seed

    def test_resolve_injects_seed_when_scenario_accepts_one(self):
        campaign = CampaignSpec(
            name="storm",
            scenario="burst-storm",
            axes=(ParameterAxis("n_jobs", (2, 3)),),
            base_params={"duration_s": 5.0},
        )
        for cell in campaign.cells():
            assert campaign.build_params(cell)["seed"] == cell.seed

    def test_pinned_seed_wins_over_derived(self):
        campaign = CampaignSpec(
            name="storm",
            scenario="burst-storm",
            axes=(ParameterAxis("n_jobs", (2, 3)),),
            base_params={"seed": 99},
        )
        for cell in campaign.cells():
            assert campaign.build_params(cell)["seed"] == 99

    def test_unknown_scenario_param_surfaces(self):
        campaign = grid_campaign(
            axes=(ParameterAxis("bogus_knob", (1, 2)),)
        )
        with pytest.raises(ValueError, match="no parameter"):
            campaign.resolve(campaign.cells()[0])

    def test_backend_is_not_a_reserved_param(self):
        campaign = grid_campaign(axes=(ParameterAxis("backend", ("heap",)),))
        with pytest.raises(ValueError, match="no parameter"):
            campaign.resolve(campaign.cells()[0])

    def test_unknown_scenario_surfaces(self):
        campaign = grid_campaign(scenario="not-registered")
        with pytest.raises(KeyError, match="unknown scenario"):
            campaign.resolve(campaign.cells()[0])


class TestIdentity:
    def test_spec_hash_stable_and_content_sensitive(self):
        a, b = grid_campaign(), grid_campaign()
        assert a.spec_hash() == b.spec_hash()
        assert a.spec_hash() != grid_campaign(seed=1).spec_hash()

    def test_describe_lists_axes_and_cells(self):
        text = grid_campaign().describe()
        assert "campaign: t" in text
        assert "interval_s" in text
        assert "[0]" in text and "cells=6" in text

    def test_describe_exposes_spec_hash(self):
        campaign = grid_campaign()
        assert f"hash={campaign.spec_hash()}" in campaign.describe()

    def test_from_json_dict_round_trips_hash(self):
        campaign = grid_campaign()
        rebuilt = type(campaign).from_json_dict(campaign.to_json_dict())
        assert rebuilt == campaign
        assert rebuilt.spec_hash() == campaign.spec_hash()


class TestMechanismAxis:
    """`mechanism` sweeps apply to the resolved spec's policy."""

    def test_mechanism_axis_resolves_via_policy(self):
        campaign = CampaignSpec(
            name="t",
            scenario="quickstart",
            axes=(ParameterAxis("mechanism", ("none", "pid")),),
        )
        specs = [campaign.resolve(cell) for cell in campaign.cells()]
        assert [s.policy.mechanism for s in specs] == ["none", "pid"]

    def test_mechanism_recorded_in_build_params(self):
        campaign = CampaignSpec(
            name="t",
            scenario="quickstart",
            axes=(ParameterAxis("mechanism", ("static",)),),
        )
        (cell,) = campaign.cells()
        assert campaign.build_params(cell)["mechanism"] == "static"

    def test_unknown_mechanism_fails_at_resolve(self):
        campaign = CampaignSpec(
            name="t",
            scenario="quickstart",
            axes=(ParameterAxis("mechanism", ("bogus",)),),
        )
        with pytest.raises(ValueError, match="unknown mechanism"):
            campaign.resolve(campaign.cells()[0])


class TestBuiltinCampaigns:
    def test_expected_campaigns_present(self):
        assert {
            "freq-sweep",
            "burst-grid",
            "scale-osts",
            "mechanism-shootout",
        } <= set(CAMPAIGNS.names())

    def test_mechanism_shootout_covers_registry(self):
        from repro.core.mechanism import MECHANISMS

        campaign = CAMPAIGNS.build("mechanism-shootout")
        (axis,) = campaign.axes
        assert axis.values == tuple(MECHANISMS.names())

    def test_mechanism_shootout_subset_and_validation(self):
        campaign = CAMPAIGNS.build(
            "mechanism-shootout", mechanisms="none,adaptbf"
        )
        (axis,) = campaign.axes
        assert axis.values == ("none", "adaptbf")
        with pytest.raises(KeyError, match="unknown mechanism"):
            CAMPAIGNS.build("mechanism-shootout", mechanisms="bogus")

    def test_builtin_campaigns_validate_and_resolve(self):
        for name in CAMPAIGNS.names():
            campaign = CAMPAIGNS.build(name)
            cells = campaign.cells()
            assert cells, name
            spec = campaign.resolve(cells[0])
            assert spec.jobs, name

    def test_freq_sweep_matches_paper_axis(self):
        from repro.experiments.fig9 import PAPER_INTERVALS_S

        campaign = CAMPAIGNS.build("freq-sweep", time_scale=1.0, data_scale=1.0)
        (axis,) = campaign.axes
        assert axis.values == PAPER_INTERVALS_S

    def test_campaign_registry_describe(self):
        for name in CAMPAIGNS.names():
            text = CAMPAIGNS.describe(name)
            assert name in text
            assert "scenario:" in text


class TestFaultAxis:
    """The reserved ``fault``/``fault_params`` campaign parameters."""

    def chaos_campaign(self, **base_overrides) -> CampaignSpec:
        base = {
            "file_mib": 16.0,
            "fault": "ost-crash",
            "fault_params": {"start_s": 0.1, "duration_s": 0.2},
        }
        base.update(base_overrides)
        return CampaignSpec(
            name="chaos",
            scenario="quickstart",
            axes=(ParameterAxis("mechanism", ("adaptbf", "none")),),
            base_params=base,
        )

    def test_fault_applied_to_resolved_spec(self):
        campaign = self.chaos_campaign()
        for cell in campaign.cells():
            spec = campaign.resolve(cell)
            (fault,) = spec.faults
            assert fault.name == "ost-crash"
            assert fault.kwargs == {"start_s": 0.1, "duration_s": 0.2}

    def test_fault_name_sweepable_as_axis(self):
        campaign = CampaignSpec(
            name="chaos",
            scenario="quickstart",
            axes=(ParameterAxis("fault", ("ost-crash", "ost-degrade")),),
            base_params={"file_mib": 16.0},
        )
        resolved = [campaign.resolve(c) for c in campaign.cells()]
        assert [s.faults[0].name for s in resolved] == [
            "ost-crash",
            "ost-degrade",
        ]

    def test_fault_params_without_fault_rejected(self):
        campaign = CampaignSpec(
            name="chaos",
            scenario="quickstart",
            axes=(ParameterAxis("mechanism", ("none",)),),
            base_params={"fault_params": {"start_s": 0.1}},
        )
        with pytest.raises(ValueError, match="without a fault"):
            campaign.resolve(campaign.cells()[0])

    def test_cell_seed_flows_into_seeded_faults(self):
        campaign = CampaignSpec(
            name="churn",
            scenario="quickstart",
            axes=(ParameterAxis("mechanism", ("adaptbf", "none")),),
            base_params={"fault": "client-churn"},
        )
        for cell in campaign.cells():
            spec = campaign.resolve(cell)
            assert spec.faults[0].kwargs["seed"] == cell.seed

    def test_spec_hash_sensitive_to_fault_params(self):
        a = self.chaos_campaign()
        b = self.chaos_campaign(
            fault_params={"start_s": 0.1, "duration_s": 0.3}
        )
        assert a.spec_hash() != b.spec_hash()

    def test_json_round_trip_preserves_fault_axis(self):
        campaign = self.chaos_campaign()
        rebuilt = CampaignSpec.from_json_dict(campaign.to_json_dict())
        assert rebuilt.spec_hash() == campaign.spec_hash()
        resolved = rebuilt.resolve(rebuilt.cells()[0])
        assert resolved.faults[0].name == "ost-crash"
