"""A steady point's latency must not depend on how long the point runs.

At n = 7, T = 300/s, T_M = 0 and T_MR = 100 ms (seed 1), FD's mean latency
doubled when the run doubled (697.5 / 1 485.7 / 2 971.5 ms at 150 / 300 /
600 messages) while reliable broadcast relayed a wrongly suspected origin's
messages: consensus acknowledgements queued behind the relays.  With reliable
broadcast one multicast it holds 45.9 / 46.5 / 47.3 ms, and it must stay flat
from 150 to 600 messages.  GM, on the same cell, holds 61.4 -> 60.6 ms.

Under crash-recovery churn (n = 5, T = 100/s, 4 crashes/s, seed 2) FD's mean
latency holds 16.8 -> 17.1 ms from 1 000 to 4 000 messages.  It grew 18.4 ->
26.4 ms while a recovered process kept the consensus instances its crash
left open: their traffic grew with every recovery.
"""

import statistics

from repro import SystemConfig
from repro.scenarios.registry import run_kind

#: Largest accepted change of the mean latency over a longer run.
DRIFT = 1.25


def mean_latency(stack, messages):
    result = run_kind(
        "suspicion-steady",
        SystemConfig(n=7, stack=stack, seed=1),
        300.0,
        messages,
        mistake_recurrence_time=100.0,
        mistake_duration=0.0,
    )
    assert result.undelivered == 0
    return statistics.fmean(result.latencies)


def run_length_drift(stack, messages):
    return mean_latency(stack, messages) / mean_latency(stack, 150)


def test_fd_latency_is_flat_in_run_length():
    assert 1 / DRIFT <= run_length_drift("fd", 600) <= DRIFT


def test_gm_latency_is_flat_in_run_length():
    assert 1 / DRIFT <= run_length_drift("gm", 300) <= DRIFT


def churn_mean_latency(messages):
    result = run_kind(
        "churn-steady", SystemConfig(n=5, stack="fd", seed=2), 100.0, messages, churn_rate=4.0
    )
    assert result.undelivered == 0
    return statistics.fmean(result.latencies)


def test_fd_latency_is_flat_in_run_length_under_churn():
    assert 1 / DRIFT <= churn_mean_latency(4_000) / churn_mean_latency(1_000) <= DRIFT
