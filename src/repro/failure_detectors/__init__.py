"""Failure detector models.

The paper abstracts failure detectors through the quality-of-service (QoS)
metrics of Chen, Toueg and Aguilera:

* detection time ``T_D`` -- time from the crash of the monitored process to
  the moment the monitor suspects it permanently,
* mistake recurrence time ``T_MR`` -- time between two consecutive wrong
  suspicions of a correct process,
* mistake duration ``T_M`` -- how long a wrong suspicion lasts.

:class:`QoSFailureDetectorFabric` implements exactly this model (constant
``T_D``, exponentially distributed ``T_MR`` and ``T_M``, all monitor pairs
independent).  :class:`PerfectFailureDetectorFabric` is the mistake-free
idealisation, built on the shared :class:`CrashDetectionFabric` base rather
than on the QoS fabric.  :class:`HeartbeatFailureDetectorFabric` drives the
concrete, message-based :class:`HeartbeatFailureDetector`: it lets users
check how implementation parameters (heartbeat period, timeout) map onto the
QoS metrics and how heartbeat traffic loads the network.

All three are :class:`DetectorFabric`\\ s -- the one contract of an fd kind:
one :class:`FailureDetector` per process, whose suspicion state the fabric
drives -- registered as ``fd_kind``\\ s in the stack registry
(:mod:`repro.stacks.registry`): ``"qos"``, ``"perfect"`` and ``"heartbeat"``
are selectable on any stack via ``SystemConfig(fd_kind=...)``.
"""

from repro.failure_detectors.fabric import CrashDetectionFabric
from repro.failure_detectors.heartbeat import (
    HeartbeatConfig,
    HeartbeatFailureDetector,
    HeartbeatFailureDetectorFabric,
)
from repro.failure_detectors.interface import DetectorFabric, FailureDetector, SuspicionListener
from repro.failure_detectors.perfect import PerfectFailureDetectorFabric
from repro.failure_detectors.qos import QoSConfig, QoSFailureDetectorFabric

__all__ = [
    "CrashDetectionFabric",
    "DetectorFabric",
    "FailureDetector",
    "HeartbeatConfig",
    "HeartbeatFailureDetector",
    "HeartbeatFailureDetectorFabric",
    "PerfectFailureDetectorFabric",
    "QoSConfig",
    "QoSFailureDetectorFabric",
    "SuspicionListener",
]
