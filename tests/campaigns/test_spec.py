"""Unit tests for campaign specifications, keys and seed derivation."""

import pytest

from repro.campaigns.spec import (
    CampaignSpec,
    PointSpec,
    SeriesPointSpec,
    SeriesSpec,
    derive_seed,
    grid,
    replicate_seeds,
)
from repro.sim.rng import RandomStreams

CORE = ("kind", "stack", "fd_kind", "n", "seed", "throughput", "num_messages", "instrument")


class TestPointSpec:
    def test_key_is_stable_and_type_normalised(self):
        a = PointSpec(kind="normal-steady", throughput=10, num_messages=50)
        b = PointSpec(kind="normal-steady", throughput=10.0, num_messages=50)
        assert a.key() == b.key()
        assert a.key() == a.key()

    def test_key_depends_on_every_axis(self):
        base = PointSpec(kind="normal-steady", throughput=10.0, num_messages=50)
        variants = [
            PointSpec(kind="normal-steady", throughput=20.0, num_messages=50),
            PointSpec(kind="normal-steady", throughput=10.0, num_messages=60),
            PointSpec(kind="normal-steady", throughput=10.0, num_messages=50, seed=2),
            PointSpec(kind="normal-steady", throughput=10.0, num_messages=50, stack="gm"),
            PointSpec(kind="normal-steady", throughput=10.0, num_messages=50, n=5),
            PointSpec(
                kind="normal-steady", throughput=10.0, num_messages=50, fd_kind="heartbeat"
            ),
        ]
        keys = {point.key() for point in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)

    def test_invalid_kind_stack_and_fd_kind_rejected(self):
        with pytest.raises(ValueError):
            PointSpec(kind="nope")
        with pytest.raises(ValueError, match="unknown stack"):
            PointSpec(kind="normal-steady", stack="nope")
        with pytest.raises(ValueError, match="unknown fd kind"):
            PointSpec(kind="normal-steady", fd_kind="nope")

    def test_undeclared_keywords_raise_instead_of_being_hashed(self):
        # Neither a core field nor a param of the kind: the removed
        # ``algorithm=`` alias, another kind's param, a typo.
        for stray in ({"algorithm": "gm"}, {"crashed": ()}, {"churn_rate": 2.0}, {"sede": 3}):
            with pytest.raises(ValueError, match="normal-steady points take no"):
                PointSpec(kind="normal-steady", **stray)
        with pytest.raises(ValueError, match=r"declares \['crashed'\]"):
            PointSpec(kind="crash-steady", crashed=(2,), detection_time=5.0)

    def test_kind_params_read_back_as_attributes(self):
        point = PointSpec(kind="crash-steady", n=7, crashed=(5, 6))
        assert point.crashed == (5, 6)
        assert point.params.crashed == (5, 6)
        with pytest.raises(AttributeError, match="churn_rate"):
            point.churn_rate

    def test_replace_accepts_core_fields_and_kind_params(self):
        import dataclasses

        point = PointSpec(kind="crash-steady", n=7, crashed=(5, 6))
        clone = dataclasses.replace(point, seed=9, crashed=(6,))
        assert (clone.seed, clone.crashed, clone.n) == (9, (6,), 7)
        assert dataclasses.replace(point, instrument=True).params is point.params
        assert clone.key() != point.key()

    def test_points_pickle_with_their_key(self):
        import pickle

        point = PointSpec(kind="churn-steady", churn_rate=2.0, mean_downtime=50.0)
        key = point.key()
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point and clone.key() == key

    def test_slash_stack_normalises_into_both_fields(self):
        a = PointSpec(kind="churn-steady", stack="fd/heartbeat", churn_rate=1, mean_downtime=100)
        b = PointSpec(
            kind="churn-steady", stack="fd", fd_kind="heartbeat", churn_rate=1, mean_downtime=100
        )
        assert (a.stack, a.fd_kind) == ("fd", "heartbeat")
        assert a.key() == b.key()

    def test_qos_only_kinds_reject_other_fd_kinds(self):
        with pytest.raises(ValueError, match="fd_kind"):
            PointSpec(
                kind="suspicion-steady", fd_kind="heartbeat", mistake_recurrence_time=100.0
            )
        with pytest.raises(ValueError, match="fd_kind"):
            PointSpec(
                kind="asymmetric-qos", fd_kind="perfect", mistake_recurrence_time=100.0
            )

    def test_kind_specific_validation(self):
        with pytest.raises(ValueError):
            PointSpec(kind="crash-steady")  # needs a crashed tuple
        with pytest.raises(ValueError):
            PointSpec(kind="suspicion-steady", mistake_recurrence_time=float("inf"))

    def test_as_dict_is_strict_json(self):
        import json

        # An infinite value must not serialise as the non-standard
        # ``Infinity`` token (it would break external JSONL consumers).
        point = PointSpec(
            kind="normal-steady",
            stack="gm",
            throughput=10.0,
            join_retry_interval=float("inf"),
        )
        text = json.dumps(point.as_dict())
        assert "Infinity" not in text
        json.loads(text, parse_constant=lambda token: pytest.fail(f"lenient {token}"))
        assert point.as_dict()["join_retry_interval"] == "inf"

    def test_as_dict_is_the_core_the_systems_params_and_the_kinds_own(self):
        assert tuple(PointSpec(kind="normal-steady").as_dict()) == CORE
        churn = PointSpec(kind="churn-steady", churn_rate=1, mean_downtime=100)
        assert tuple(churn.as_dict()) == CORE + (
            "churn_rate", "mean_downtime", "detection_time",
        )
        # System params enter only off their defaults.
        reform = PointSpec(kind="normal-steady", stack="gm-reform", reformation_timeout=300)
        assert tuple(reform.as_dict()) == CORE + ("reformation_timeout",)
        # Declared floats normalise, declared ints stay ints.
        assert churn.as_dict()["churn_rate"] == 1.0
        assert isinstance(churn.as_dict()["churn_rate"], float)
        assert reform.as_dict()["reformation_timeout"] == 300.0
        transient = PointSpec(kind="crash-transient", sender=2.0, num_runs=3)
        assert transient.as_dict()["sender"] == 2
        assert isinstance(transient.as_dict()["sender"], int)

    def test_system_param_values_are_normalised(self):
        a = PointSpec(kind="normal-steady", stack="gm", join_retry_interval=200)
        b = PointSpec(kind="normal-steady", stack="gm", join_retry_interval=200.0)
        assert a.key() == b.key()

    def test_config_round_trip(self):
        point = PointSpec(
            kind="normal-steady",
            stack="gm",
            fd_kind="perfect",
            n=5,
            seed=9,
            join_retry_interval=250.0,
            fd_scan_interval=2.0,
        )
        config = point.config()
        assert (config.n, config.stack, config.fd_kind) == (5, "gm", "perfect")
        assert (config.seed, config.params.stack.join_retry_interval) == (9, 250.0)
        assert config.params.detector.scan_interval == 2.0
        assert PointSpec.from_dict(point.as_dict()).config() == config


class TestSeedDerivation:
    def test_follows_random_streams_convention(self):
        # Same Knuth + CRC32 mixing as RandomStreams._derive.
        assert derive_seed(42, "replica/1") == RandomStreams(42)._derive("replica/1")

    def test_replica_zero_keeps_root_seed(self):
        seeds = replicate_seeds(7, 3)
        assert seeds[0] == 7
        assert len(set(seeds)) == 3
        assert seeds == replicate_seeds(7, 3)

    def test_replicas_must_be_positive(self):
        with pytest.raises(ValueError):
            replicate_seeds(1, 0)


class TestCampaignSpec:
    def test_points_deduplicate_across_series(self):
        shared = PointSpec(kind="normal-steady", throughput=10.0, num_messages=30)
        only_b = PointSpec(kind="normal-steady", throughput=20.0, num_messages=30)
        campaign = CampaignSpec(
            name="dedup",
            series=[
                SeriesSpec(label="a", points=[SeriesPointSpec(x=10.0, points=[shared])]),
                SeriesSpec(
                    label="b",
                    points=[
                        SeriesPointSpec(x=10.0, points=[shared]),
                        SeriesPointSpec(x=20.0, points=[only_b]),
                    ],
                ),
            ],
        )
        assert campaign.points() == [shared, only_b]

    def test_point_keys_do_not_depend_on_the_campaign_name(self):
        keys = [
            [point.key() for point in grid("normal-steady", name=name, num_messages=10).points()]
            for name in ("adhoc", "something-else")
        ]
        assert keys[0] == keys[1]

    def test_description_is_gone(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'description'"):
            CampaignSpec(name="described", description="a campaign")
        with pytest.raises(ValueError, match=r"no axis \['description'\]"):
            grid("normal-steady", description="a campaign")


class TestGrid:
    def test_cartesian_product_shape(self):
        campaign = grid(
            "normal-steady",
            stacks=("fd", "gm"),
            n_values=(3, 7),
            throughputs=(10.0, 50.0),
            seeds=(1, 2),
            num_messages=30,
        )
        assert len(campaign.series) == 4  # (stack, n) pairs
        assert all(len(series.points) == 2 for series in campaign.series)
        assert len(campaign.points()) == 16  # 2 stacks * 2 n * 2 T * 2 seeds

    def test_fd_kinds_axis_crosses_every_stack(self):
        campaign = grid(
            "churn-steady",
            stacks=("fd", "gm"),
            fd_kinds=("qos", "heartbeat"),
            throughputs=(10.0,),
        )
        labels = [series.label for series in campaign.series]
        assert labels == ["fd, n=3", "fd/heartbeat, n=3", "gm, n=3", "gm/heartbeat, n=3"]
        assert {point.fd_kind for point in campaign.points()} == {"qos", "heartbeat"}

    def test_slash_stacks_deduplicate_against_fd_kind_axis(self):
        campaign = grid(
            "normal-steady", stacks=("fd/heartbeat",), fd_kinds=(None, "heartbeat"),
            throughputs=(10.0,),
        )
        assert [series.label for series in campaign.series] == ["fd/heartbeat, n=3"]

    def test_explicit_qos_conflicting_with_slash_stack_raises(self):
        with pytest.raises(ValueError, match="conflicting"):
            PointSpec(kind="normal-steady", stack="fd/heartbeat", fd_kind="qos")
        with pytest.raises(ValueError, match="conflicting"):
            grid("normal-steady", stacks=("fd/heartbeat",), fd_kinds=("qos",))

    def test_axes_the_kind_does_not_declare_raise(self):
        for stray in ({"algorithms": ("fd",)}, {"churn_rate": 2.0}, {"crashes": 1}):
            with pytest.raises(ValueError, match="normal-steady has no axis"):
                grid("normal-steady", throughputs=(10.0,), **stray)

    def test_axes_default_as_on_the_command_line(self):
        (point,) = grid("suspicion-steady", stacks=("fd",), throughputs=(10.0,)).points()
        assert point.mistake_recurrence_time == 1000.0
        (point,) = grid("churn-steady", stacks=("fd",), throughputs=(10.0,)).points()
        assert (point.churn_rate, point.mean_downtime) == (1.0, 200.0)
        (point,) = grid(
            "crash-transient", stacks=("fd",), throughputs=(10.0,), sender=1, num_runs=3
        ).points()
        assert (point.sender, point.num_runs) == (1, 3)

    def test_crash_steady_respects_crash_bound(self):
        with pytest.raises(ValueError):
            grid("crash-steady", n_values=(3,), crashes=2)

    def test_crash_steady_selects_highest_pids(self):
        campaign = grid("crash-steady", n_values=(7,), crashes=2, stacks=("fd",))
        point = campaign.points()[0]
        assert point.crashed == (5, 6)

    @pytest.mark.parametrize("kind", ["crash-steady", "correlated-crash"])
    def test_grid_takes_every_field_a_point_takes(self, kind):
        campaign = grid(kind, n_values=(5,), crashed=(3, 4), stacks=("fd",), throughputs=(10.0,))
        (point,) = campaign.points()
        assert point.params == PointSpec(kind, n=5, crashed=(3, 4)).params
        with pytest.raises(ValueError, match=r"\['crashes'\] or \['crashed'\], not both"):
            grid(kind, n_values=(5,), crashes=1, crashed=(3, 4))

    def test_duplicate_seeds_are_dropped(self):
        campaign = grid(
            "normal-steady", stacks=("fd",), throughputs=(10.0,), seeds=(1, 1, 2)
        )
        series_point = campaign.series[0].points[0]
        assert [point.seed for point in series_point.points] == [1, 2]

    def test_nan_parameters_are_rejected(self):
        # The core at declaration, any other param when the key is built.
        with pytest.raises(ValueError, match="throughput must be finite"):
            PointSpec(kind="normal-steady", throughput=float("nan"))
        point = PointSpec(kind="crash-transient", detection_time=float("nan"))
        with pytest.raises(ValueError, match="NaN is not a valid point parameter"):
            point.key()


class TestFdKindGuards:
    def test_crash_transient_rejects_heartbeat_fd(self):
        with pytest.raises(ValueError, match="period \\+ timeout"):
            PointSpec(kind="crash-transient", fd_kind="heartbeat")

    def test_grid_conflicting_slash_stack_and_fd_kind_raises(self):
        with pytest.raises(ValueError, match="conflicting"):
            grid("normal-steady", stacks=("fd/heartbeat",), fd_kinds=("perfect",))


def system_params(point):
    """The point's stack, fd-kind and batching params."""
    return point.config().params


class TestReformationAndHeartbeatDimensions:
    """Declared stack and fd-kind params: the reformation window, the heartbeat plane."""

    def test_new_dimensions_enter_the_cache_key(self):
        base = PointSpec(kind="view-majority-loss", stack="gm-reform", detection_time=10.0)
        variants = [
            PointSpec(
                kind="view-majority-loss",
                stack="gm-reform",
                detection_time=10.0,
                reformation_timeout=800.0,
            ),
            PointSpec(
                kind="normal-steady", stack="gm", fd_kind="heartbeat", heartbeat_period=20.0
            ),
            PointSpec(
                kind="normal-steady", stack="gm", fd_kind="heartbeat", heartbeat_timeout=90.0
            ),
        ]
        keys = {point.key() for point in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)
        # A default-valued param is not in the dict: no second name for a system.
        assert "reformation_timeout" not in base.as_dict()
        assert variants[1].as_dict()["heartbeat_period"] == 20.0
        assert "heartbeat_timeout" not in variants[1].as_dict()

    def test_view_majority_loss_accepts_any_n_from_3(self):
        with pytest.raises(ValueError, match="n >= 3"):
            PointSpec(kind="view-majority-loss", stack="gm-reform", n=2)
        PointSpec(kind="view-majority-loss", stack="gm-reform", n=4)  # staged even-n
        PointSpec(kind="view-majority-loss", stack="gm-reform", n=5)  # fine

    def test_out_of_range_params_rejected(self):
        with pytest.raises(ValueError, match="reformation_timeout"):
            PointSpec(kind="normal-steady", stack="gm-reform", reformation_timeout=-1.0)
        for field in ("period", "timeout"):
            with pytest.raises(ValueError, match=field):
                PointSpec(kind="normal-steady", fd_kind="heartbeat", **{f"heartbeat_{field}": -1.0})

    def test_knobs_reach_the_system_config(self):
        point = PointSpec(
            kind="view-majority-loss",
            stack="gm-reform",
            reformation_timeout=750.0,
        )
        assert system_params(point).stack.reformation_timeout == 750.0
        hb = system_params(PointSpec(
            kind="normal-steady",
            stack="gm",
            fd_kind="heartbeat",
            heartbeat_period=20.0,
        )).detector
        assert hb.period == 20.0
        assert hb.timeout == 30.0  # unset param keeps the default

    def test_unset_params_keep_their_declared_defaults(self):
        params = system_params(PointSpec(kind="view-majority-loss", stack="gm-reform"))
        assert params.stack.reformation_timeout == 500.0
        heartbeat = system_params(PointSpec(kind="normal-steady", fd_kind="heartbeat"))
        assert heartbeat.detector.period == 10.0

    def test_grid_hands_each_param_to_the_stacks_that_read_it(self):
        campaign = grid(
            "view-majority-loss",
            stacks=("gm", "gm-reform"),
            throughputs=(10.0,),
            reformation_timeout=800.0,
        )
        by_stack = {point.stack: system_params(point).stack for point in campaign.points()}
        # Only the reformation-capable stack reads the param, under any kind.
        assert by_stack["gm-reform"].reformation_timeout == 800.0
        assert not hasattr(by_stack["gm"], "reformation_timeout")
        # A param no stack of the grid reads is an error, unless it is the default.
        with pytest.raises(ValueError, match="heartbeat_period applies to fd kind heartbeat"):
            grid("view-majority-loss", stacks=("gm",), heartbeat_period=25.0)
        assert grid("view-majority-loss", stacks=("gm",), heartbeat_period=10.0).points()

    def test_grid_applies_reformation_knob_under_any_kind(self):
        campaign = grid(
            "churn-steady",
            stacks=("gm-reform",),
            throughputs=(10.0,),
            reformation_timeout=250.0,
        )
        (point,) = campaign.points()
        assert system_params(point).stack.reformation_timeout == 250.0

    def test_out_of_window_crash_time_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="suspicion window"):
            PointSpec(kind="view-majority-loss", stack="gm-reform", crash_time=500.0)
        PointSpec(kind="view-majority-loss", stack="gm-reform", crash_time=200.0)

    def test_grid_heartbeat_knobs_follow_the_fd_axis(self):
        campaign = grid(
            "normal-steady",
            stacks=("gm",),
            fd_kinds=("qos", "heartbeat"),
            throughputs=(10.0,),
            heartbeat_period=25.0,
            heartbeat_timeout=75.0,
        )
        by_kind = {point.fd_kind: system_params(point).detector for point in campaign.points()}
        assert (by_kind["heartbeat"].period, by_kind["heartbeat"].timeout) == (25.0, 75.0)
        assert not hasattr(by_kind["qos"], "period")


class TestServiceLoadDimensions:
    """The client population, batching and FD-scan dimensions."""

    def test_new_dimensions_enter_the_cache_key(self):
        base = PointSpec(kind="service-load", stack="fd", throughput=200.0)
        variants = [
            PointSpec(kind="service-load", stack="fd", throughput=200.0, clients=8),
            PointSpec(
                kind="service-load", stack="fd", throughput=200.0, clients=8,
                think_time=25.0,
            ),
            PointSpec(
                kind="service-load", stack="fd", throughput=200.0, consistency="local"
            ),
            PointSpec(kind="service-load", stack="fd", throughput=200.0, max_batch=8),
            PointSpec(
                kind="service-load", stack="fd", throughput=200.0, max_batch=8,
                max_delay=3.0,
            ),
            PointSpec(kind="normal-steady", stack="fd", fd_scan_interval=5.0),
        ]
        keys = {point.key() for point in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)
        for point in [base] + variants:
            for field in ("clients", "think_time", "consistency"):
                assert (field in point.as_dict()) == (point.kind == "service-load")

    def test_knobs_reach_the_system_config(self):
        params = system_params(PointSpec(
            kind="service-load", stack="gm", max_batch=4, max_delay=2.5,
            fd_scan_interval=10.0,
        ))
        assert (params.batching.max_batch, params.batching.max_delay) == (4, 2.5)
        assert params.detector.scan_interval == 10.0

    def test_unset_params_keep_their_declared_defaults(self):
        params = system_params(PointSpec(kind="service-load", stack="fd"))
        assert (params.batching.max_batch, params.batching.max_delay) == (0, 0.0)
        assert params.detector.scan_interval is None

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError, match="clients"):
            PointSpec(kind="service-load", clients=-1)
        with pytest.raises(ValueError, match="max_batch"):
            PointSpec(kind="service-load", max_batch=-1)
        with pytest.raises(ValueError, match="consistency"):
            PointSpec(kind="service-load", consistency="eventual")
        for knob in ("think_time", "max_delay", "fd_scan_interval"):
            with pytest.raises(ValueError, match=knob):
                PointSpec(kind="service-load", max_batch=2, **{knob: -1.0})
        # A delay without batching is a knob nobody reads.
        with pytest.raises(ValueError, match="max_delay applies only with max_batch > 0"):
            PointSpec(kind="service-load", max_delay=2.0)

    def test_grid_hands_the_scan_tick_to_the_clock_driven_detectors_only(self):
        campaign = grid(
            "normal-steady",
            stacks=("gm",),
            fd_kinds=("qos", "heartbeat"),
            throughputs=(10.0,),
            fd_scan_interval=5.0,
        )
        by_kind = {point.fd_kind: system_params(point).detector for point in campaign.points()}
        assert by_kind["qos"].scan_interval == 5.0
        assert not hasattr(by_kind["heartbeat"], "scan_interval")


class TestFaultInjectionDimensions:
    """The v7 sweep dimensions: partitions, WAN profiles, gray failures."""

    def test_new_dimensions_enter_the_cache_key(self):
        base = PointSpec(kind="partition-transient", stack="gm", throughput=50.0)
        variants = [
            PointSpec(
                kind="partition-transient", stack="gm", throughput=50.0,
                partition_duration=500.0,
            ),
            PointSpec(
                kind="partition-transient", stack="gm", throughput=50.0,
                partition_start=120.0,
            ),
            PointSpec(kind="wan-steady", stack="gm", throughput=50.0,
                      wan_profile="wan-3dc"),
            PointSpec(kind="wan-steady", stack="gm", throughput=50.0,
                      wan_profile="wan-5dc"),
            PointSpec(kind="gray-degradation", stack="gm", throughput=50.0,
                      degrade_factor=5.0),
            PointSpec(kind="gray-degradation", stack="gm", throughput=50.0,
                      link_loss=0.2),
        ]
        keys = {point.key() for point in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)

    def test_round_trip_preserves_the_key(self):
        for point in (
            PointSpec(kind="partition-transient", stack="gm-reform",
                      partition_duration=750.0, partition_start=200.0),
            PointSpec(kind="wan-steady", stack="fd", wan_profile="wan-5dc"),
            PointSpec(kind="gray-degradation", stack="gm", degrade_factor=6.0,
                      link_loss=0.1, degraded_pid=1),
        ):
            clone = PointSpec.from_dict(point.as_dict())
            assert clone == point
            assert clone.key() == point.key()

    def test_wan_profile_must_name_a_registered_topology(self):
        # The driver's own default topology, no longer a required field.
        assert PointSpec(kind="wan-steady", stack="gm").wan_profile == "wan-3dc"
        with pytest.raises(ValueError, match="unknown WAN profile"):
            PointSpec(kind="wan-steady", stack="gm", wan_profile="wan-nope")

    def test_wan_profile_rejected_on_other_kinds(self):
        with pytest.raises(ValueError, match="wan_profile"):
            PointSpec(kind="normal-steady", wan_profile="wan-3dc")

    def test_gray_dimension_validation(self):
        with pytest.raises(ValueError, match="degrade_factor"):
            PointSpec(kind="gray-degradation", stack="gm", degrade_factor=0.5)
        with pytest.raises(ValueError, match="link_loss"):
            PointSpec(kind="gray-degradation", stack="gm", link_loss=1.0)
        with pytest.raises(ValueError, match="degrade_duration"):
            PointSpec(kind="gray-degradation", stack="gm", degrade_duration=0.0)
        with pytest.raises(ValueError, match="degraded_pid"):
            PointSpec(kind="gray-degradation", stack="gm", degraded_pid=3)
        # The params carry the driver's real defaults (no "0 = default").
        gray = PointSpec(kind="gray-degradation", stack="gm")
        assert (gray.degrade_factor, gray.degrade_duration) == (4.0, 2000.0)
        assert PointSpec(kind="partition-transient").partition_duration == 2000.0

    def test_partition_transient_needs_three_processes(self):
        with pytest.raises(ValueError, match="n >= 3"):
            PointSpec(kind="partition-transient", stack="gm", n=2)
        with pytest.raises(ValueError, match="partition_duration"):
            PointSpec(kind="partition-transient", stack="gm", partition_duration=-1.0)

    def test_grid_takes_each_kinds_own_axes(self):
        (partition,) = grid(
            "partition-transient", stacks=("gm",), throughputs=(50.0,),
            partition_start=100.0, partition_duration=500.0, detection_time=10.0,
        ).points()
        assert partition.params == type(partition.params)(100.0, 500.0, 10.0)
        (wan,) = grid(
            "wan-steady", stacks=("gm",), throughputs=(50.0,), wan_profile="wan-5dc"
        ).points()
        assert wan.wan_profile == "wan-5dc"
        (gray,) = grid(
            "gray-degradation", stacks=("gm",), throughputs=(50.0,),
            degraded_pid=1, degrade_factor=4.0, link_loss=0.2, degrade_duration=500.0,
        ).points()
        assert (gray.degraded_pid, gray.link_loss, gray.degrade_duration) == (1, 0.2, 500.0)
        # An axis of another kind is rejected, not zeroed.
        with pytest.raises(ValueError, match="wan-steady has no axis"):
            grid("wan-steady", stacks=("gm",), throughputs=(50.0,), link_loss=0.2)
