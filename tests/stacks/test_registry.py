"""Unit tests for the protocol-stack registry and its public protocols."""

from dataclasses import dataclass

import pytest

from repro import build_system
from repro.stacks import (
    FailureDetectorFabric,
    StackLayers,
    StackSpec,
    available_fd_kinds,
    available_stacks,
    get_fd_kind,
    get_stack,
    register_fd_kind,
    register_stack,
    resolve,
    split_stack,
    stack_variants,
    unregister_fd_kind,
    unregister_stack,
)
from tests.conftest import readme_module


class TestBuiltinRegistrations:
    def test_builtin_stacks_present(self):
        assert available_stacks() == ("fd", "gm", "gm-nonuniform", "gm-reform")

    def test_builtin_fd_kinds_present(self):
        assert available_fd_kinds() == ("qos", "heartbeat", "perfect")

    def test_stack_variants_cross_stacks_with_fd_kinds(self):
        variants = stack_variants()
        assert "fd" in variants
        assert "fd/heartbeat" in variants
        assert "gm/perfect" in variants
        assert "fd/qos" not in variants  # default kind is not re-listed

    def test_gm_stacks_use_membership(self):
        assert not get_stack("fd").uses_membership
        assert get_stack("gm").uses_membership
        assert get_stack("gm-nonuniform").uses_membership
        assert get_stack("gm-reform").uses_membership

    def test_unknown_names_raise_with_candidates(self):
        with pytest.raises(ValueError, match="expected one of"):
            get_stack("zab")
        with pytest.raises(ValueError, match="expected one of"):
            get_fd_kind("oracle")


class TestResolution:
    def test_split_stack(self):
        assert split_stack("fd") == ("fd", None)
        assert split_stack("fd/heartbeat") == ("fd", "heartbeat")

    def test_resolve_defaults_to_stack_fd_kind(self):
        spec, kind = resolve("gm")
        assert spec.name == "gm"
        assert kind == "qos"

    def test_resolve_slash_variant(self):
        spec, kind = resolve("fd/perfect")
        assert (spec.name, kind) == ("fd", "perfect")

    def test_resolve_explicit_kind(self):
        _, kind = resolve("fd", "heartbeat")
        assert kind == "heartbeat"

    def test_resolve_conflict_raises(self):
        with pytest.raises(ValueError, match="conflicting"):
            resolve("fd/heartbeat", "perfect")

    def test_resolve_unknown_embedded_kind_raises(self):
        with pytest.raises(ValueError, match="unknown fd kind"):
            resolve("fd/psychic")


class TestStackSpecValidation:
    def test_name_required(self):
        with pytest.raises(ValueError):
            StackSpec(name="", build=lambda *a: None)

    def test_slash_in_name_rejected(self):
        with pytest.raises(ValueError, match="cannot contain"):
            StackSpec(name="fd/custom", build=lambda *a: None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_stack(get_stack("fd"))
        with pytest.raises(ValueError, match="already registered"):
            register_fd_kind("qos", lambda *a: None)


class TestCustomRegistration:
    def test_registered_stack_assembles_through_the_standard_path(self):
        @dataclass(frozen=True)
        class EchoParams:
            join_retry_interval: float = 500.0

        def build_echo_gm(system, process, rbcast, consensus):
            # A custom stack reusing the GM layers: what a user extension does.
            from repro.core.group_membership import GroupMembership
            from repro.core.sequencer_broadcast import SequencerAtomicBroadcast

            membership = GroupMembership(
                process,
                consensus,
                join_retry_interval=system.config.params.stack.join_retry_interval,
            )
            return StackLayers(
                abcast=SequencerAtomicBroadcast(process, membership), membership=membership
            )

        register_stack(
            StackSpec(
                name="gm-custom",
                build=build_echo_gm,
                uses_membership=True,
                params=EchoParams,
            )
        )
        try:
            system = build_system(n=3, stack="gm-custom", seed=2, join_retry_interval=250.0)
            system.broadcast_at(1.0, 0, "x")
            system.run(until=100.0)
            assert all(len(seq) == 1 for seq in system.delivery_sequences().values())
            assert system.config.stack == "gm-custom"
            assert system.memberships[0].join_retry_interval == 250.0
            # gm-reform's own param is not this stack's: its default drops, a value raises.
            assert build_system(n=3, stack="gm-custom", reformation_timeout=500.0)
            with pytest.raises(ValueError, match="reformation_timeout applies to stack gm-reform"):
                build_system(n=3, stack="gm-custom", reformation_timeout=300.0)
        finally:
            unregister_stack("gm-custom")

    def test_registered_fd_kind_is_selectable(self):
        from repro.failure_detectors.perfect import PerfectFailureDetectorFabric

        register_fd_kind(
            "instant",
            lambda sim, network, rng, config: PerfectFailureDetectorFabric(
                sim, network, detection_time=0.0
            ),
        )
        try:
            system = build_system(n=3, fd_kind="instant")
            assert isinstance(system.fd_fabric, PerfectFailureDetectorFabric)
        finally:
            unregister_fd_kind("instant")

    def test_fd_kind_name_with_slash_rejected(self):
        with pytest.raises(ValueError, match="cannot contain"):
            register_fd_kind("qos/fast", lambda *a: None)


class TestReadmeBlock:
    """The README's "Adding a stack or FD kind" example, executed verbatim."""

    @pytest.fixture
    def lagging(self):
        try:
            with readme_module("### Adding a stack or FD kind", "readme_lagging") as module:
                yield module
        finally:
            unregister_fd_kind("lagging")

    def test_the_kind_runs_with_its_declared_param(self, lagging):
        from repro.campaigns import PointSpec
        from repro.campaigns.records import execute_point

        assert lagging.detection_time == 40.0
        assert "lagging" in available_fd_kinds()
        point = PointSpec(
            "crash-steady", stack="gm/lagging", crashed=(2,), lag_ms=40.0, num_messages=10
        )
        assert point.as_dict()["lag_ms"] == 40.0
        assert execute_point(point)["measured"] == 10
        plain = PointSpec("crash-steady", stack="gm", crashed=(2,))
        assert PointSpec("crash-steady", stack="gm", crashed=(2,), lag_ms=25.0).key() == plain.key()
        with pytest.raises(ValueError, match="lag_ms applies to fd kind lagging"):
            PointSpec("crash-steady", stack="gm", crashed=(2,), lag_ms=40.0)
        with pytest.raises(ValueError, match="lag_ms must be >= 0"):
            build_system(n=3, fd_kind="lagging", lag_ms=-1.0)


class TestProtocolConformance:
    def test_all_builtin_fabrics_satisfy_the_fabric_protocol(self):
        for fd_kind in available_fd_kinds():
            system = build_system(n=3, fd_kind=fd_kind)
            assert isinstance(system.fd_fabric, FailureDetectorFabric), fd_kind
