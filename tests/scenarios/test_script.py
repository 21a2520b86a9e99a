"""The ``verify`` step of ``ScenarioRunner.run_steady`` and its ``params["script"]`` trace."""

from dataclasses import replace

import pytest

from repro import SystemConfig
from repro.scenarios.faults import CrashAt, FaultSchedule
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec


def spec(**overrides):
    return SteadyStateSpec(
        "test", SystemConfig(n=3, stack="fd", seed=5), 100.0, 10, **overrides
    )


class TestVerify:
    def test_successful_run_records_the_three_stages(self):
        seen = []

        def verify(system, result):
            seen.append((system.sim.now, result.duration, len(result.latencies)))
            result.params["frames"] = system.network.stats.messages_sent

        result = ScenarioRunner().run_steady(spec(), verify=verify)
        assert result.params["script"] == {"stages": ["build", "measure", "verify"]}
        assert result.params["frames"] > 0
        # verify sees the finished system and the assembled result.
        assert seen == [(result.duration, result.duration, 10)]

    def test_failed_verification_is_a_datum_not_an_exception(self):
        def verify(system, result):
            raise AssertionError("minority delivered past the fence")

        result = ScenarioRunner().run_steady(spec(), verify=verify)
        assert result.params["script"] == {
            "stages": ["build", "measure"],
            "failed_stage": "verify",
            "error": "minority delivered past the fence",
        }
        assert len(result.latencies) == 10  # the measurement is kept

    def test_without_verify_there_is_no_trace(self):
        assert "script" not in ScenarioRunner().run_steady(spec()).params

    def test_a_bug_in_verify_is_not_mistaken_for_a_finding(self):
        with pytest.raises(ZeroDivisionError):
            ScenarioRunner().run_steady(spec(), verify=lambda system, result: 1 / 0)


class TestErrorsBeforeVerifyPropagate:
    def test_building_the_system(self, monkeypatch):
        import repro.scenarios.runner as runner_module

        def broken(config):
            raise RuntimeError("bad config")

        monkeypatch.setattr(runner_module, "build_system", broken)
        verified = []
        with pytest.raises(RuntimeError, match="bad config"):
            ScenarioRunner().run_steady(spec(), verify=lambda *args: verified.append(args))
        assert verified == []

    def test_measuring(self):
        faults = FaultSchedule([CrashAt(10.0, 7)])  # no such process
        verified = []
        with pytest.raises(IndexError):
            ScenarioRunner().run_steady(
                replace(spec(), faults=faults), verify=lambda *args: verified.append(args)
            )
        assert verified == []
