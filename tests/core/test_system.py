"""Unit tests for the system builder and the stack-based configuration."""


import pytest

from repro import SystemConfig, build_system
from repro.failure_detectors.heartbeat import HeartbeatFailureDetectorFabric
from repro.failure_detectors.perfect import PerfectFailureDetectorFabric
from repro.failure_detectors.qos import QoSFailureDetectorFabric
from repro.stacks.api import NoParams


class TestSystemConfig:
    def test_defaults(self):
        config = SystemConfig()
        assert config.n == 3
        assert config.stack == "fd"
        assert config.fd_kind == "qos"
        assert config.network.lambda_cpu == 1.0
        assert config.params.stack == NoParams()
        assert config.params.batching.max_batch == 0

    def test_unknown_stack_rejected(self):
        with pytest.raises(ValueError, match="unknown stack"):
            SystemConfig(stack="paxos")

    def test_unknown_fd_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fd kind"):
            SystemConfig(fd_kind="telepathy")

    def test_zero_processes_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(n=0)

    def test_with_seed_copies(self):
        config = SystemConfig(seed=1)
        other = config.with_seed(99)
        assert other.seed == 99
        assert other.n == config.n
        assert config.seed == 1

    def test_max_tolerated_crashes(self):
        assert SystemConfig(n=3).max_tolerated_crashes() == 1
        assert SystemConfig(n=7).max_tolerated_crashes() == 3
        assert SystemConfig(n=4).max_tolerated_crashes() == 1

    def test_slash_stack_selects_fd_kind(self):
        config = SystemConfig(stack="fd/heartbeat")
        assert config.stack == "fd"
        assert config.fd_kind == "heartbeat"
        assert config.stack_label == "fd/heartbeat"

    def test_slash_stack_conflicting_fd_kind_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            SystemConfig(stack="fd/heartbeat", fd_kind="perfect")

    def test_stack_label_default_kind_is_bare(self):
        assert SystemConfig(stack="gm").stack_label == "gm"
        assert SystemConfig(stack="gm", fd_kind="perfect").stack_label == "gm/perfect"

    def test_normalised_selections_compare_equal(self):
        assert SystemConfig(stack="fd/perfect") == SystemConfig(stack="fd", fd_kind="perfect")


class TestRemovedAlgorithmAlias:
    def test_algorithm_keyword_and_property_are_gone(self):
        with pytest.raises(TypeError, match="algorithm"):
            SystemConfig(n=3, algorithm="gm")
        with pytest.raises(TypeError, match="algorithm"):
            build_system(SystemConfig(n=3), algorithm="gm")
        assert not hasattr(SystemConfig(), "algorithm")


class TestBuildSystem:
    def test_build_with_overrides(self):
        system = build_system(n=5, stack="gm", seed=3)
        assert system.config.n == 5
        assert system.config.stack == "gm"

    def test_build_with_config_and_overrides(self):
        system = build_system(SystemConfig(n=3), seed=42)
        assert system.config.seed == 42

    def test_overrides_round_trip_every_axis(self):
        base = SystemConfig()
        system = build_system(
            base, n=5, stack="gm-nonuniform", fd_kind="perfect", seed=11, join_retry_interval=250.0
        )
        config = system.config
        assert (config.n, config.stack, config.fd_kind) == (5, "gm-nonuniform", "perfect")
        assert (config.seed, config.params.stack.join_retry_interval) == (11, 250.0)
        # the original configuration is untouched
        assert (base.n, base.stack, base.fd_kind, base.seed) == (3, "fd", "qos", 1)

    def test_slash_stack_override_folds_into_both_fields(self):
        system = build_system(SystemConfig(n=3), stack="fd/heartbeat")
        assert system.config.stack == "fd"
        assert system.config.fd_kind == "heartbeat"

    def test_slash_stack_override_conflicting_fd_kind_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            build_system(SystemConfig(n=3), stack="fd/heartbeat", fd_kind="qos")

    def test_fd_kind_selects_the_fabric_implementation(self):
        assert isinstance(build_system(fd_kind="qos").fd_fabric, QoSFailureDetectorFabric)
        assert isinstance(
            build_system(fd_kind="heartbeat").fd_fabric, HeartbeatFailureDetectorFabric
        )
        assert isinstance(
            build_system(fd_kind="perfect").fd_fabric, PerfectFailureDetectorFabric
        )

    def test_every_process_has_failure_detector(self):
        system = build_system(n=4)
        for process in system.processes:
            assert process.failure_detector is not None

    def test_heartbeat_processes_own_their_detector_component(self):
        system = build_system(n=3, fd_kind="heartbeat")
        for process in system.processes:
            assert process.failure_detector is system.fd_fabric.detector(process.pid)
            assert process.component("heartbeat-fd") is process.failure_detector

    @pytest.mark.parametrize("fd_kind", ["qos", "heartbeat", "perfect"])
    def test_a_forced_suspicion_names_only_processes_of_the_system(self, fd_kind):
        # Rejected at the call on every fd kind, nothing posted: not ignored
        # (qos, perfect), nor a KeyError or ValueError from inside run().
        system = build_system(n=3, fd_kind=fd_kind)
        for call, pid in [
            (lambda: system.suspect_during(7, 10.0, 5.0), 7),
            (lambda: system.suspect_during(0, 10.0, 5.0, monitors=[1, 9]), 9),
            (lambda: system.suspect_during(-1, 10.0, 5.0), -1),
            (lambda: system.suspect_permanently(7), 7),
        ]:
            with pytest.raises(ValueError, match=rf"names process {pid}, .* processes 0\.\.2$"):
                call()
        assert system.sim.pending_events == 0
        system.suspect_during(2, 10.0, 5.0, monitors=[0])
        system.run(until=12.0)
        assert system.fd_fabric.detector(0).is_suspected(2)

    def test_fd_system_has_no_membership(self):
        system = build_system(stack="fd")
        with pytest.raises(ValueError):
            system.membership(0)

    def test_gm_system_exposes_membership(self):
        system = build_system(stack="gm")
        assert system.membership(1).view.members == (0, 1, 2)

    def test_start_is_idempotent(self):
        system = build_system()
        system.start()
        system.start()
        assert system.sim.now == 0.0

    def test_crash_marks_process(self):
        system = build_system()
        system.start()
        system.crash(2)
        assert system.processes[2].crashed
        assert system.correct_processes() == [0, 1]

    def test_broadcast_returns_identifier(self):
        system = build_system()
        system.start()
        bid = system.broadcast(1, "x")
        assert bid.sender == 1
        assert bid.seq == 1

    def test_message_stats_exposed(self):
        system = build_system()
        system.start()
        system.broadcast_at(1.0, 0, "x")
        system.run(until=50.0)
        stats = system.message_stats()
        assert stats["messages_sent"] > 0

    def test_delivery_listener_sees_all_processes(self):
        system = build_system()
        system.start()
        seen = set()
        system.add_delivery_listener(lambda pid, bid, payload: seen.add(pid))
        system.broadcast_at(1.0, 0, "x")
        system.run(until=50.0)
        assert seen == {0, 1, 2}

    def test_same_seed_reproduces_exact_delivery_times(self):
        def trace(seed):
            system = build_system(SystemConfig(n=3, stack="fd", seed=seed))
            system.start()
            times = []
            system.add_delivery_listener(
                lambda pid, bid, payload: times.append((round(system.sim.now, 9), pid, bid))
            )
            for i in range(5):
                system.broadcast_at(1.0 + 2 * i, i % 3, f"m{i}")
            system.run(until=200.0)
            return times

        first = trace(5)
        assert first == trace(5)
        assert len(first) == 5 * 3

    def test_every_stack_delivers_under_every_fd_kind(self):
        for stack in ("fd", "gm", "gm-nonuniform"):
            for fd_kind in ("qos", "heartbeat", "perfect"):
                system = build_system(n=3, stack=stack, fd_kind=fd_kind, seed=3)
                system.broadcast_at(1.0, 0, "x")
                system.run(until=300.0)
                counts = {pid: len(seq) for pid, seq in system.delivery_sequences().items()}
                assert counts == {0: 1, 1: 1, 2: 1}, (stack, fd_kind)
