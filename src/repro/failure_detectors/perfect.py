"""Perfect failure detector: no mistakes, immediate (or delayed) detection.

Built directly on the shared
:class:`~repro.failure_detectors.fabric.CrashDetectionFabric` base -- *not*
on the QoS fabric -- so the perfect detector cannot inherit QoS mistake
behaviour by accident: there is simply no mistake machinery in its type.
Crashes are detected exactly ``detection_time`` after they happen, trust is
restored one ``detection_time`` after a recovery, and no correct process is
ever suspected.  Used extensively by the unit and property tests, and
available as the ``"perfect"`` fd kind of the stack registry
(``SystemConfig(stack="fd", fd_kind="perfect")`` or ``stack="fd/perfect"``).
"""

from __future__ import annotations

from typing import Optional

from repro.failure_detectors.fabric import CrashDetectionFabric
from repro.failure_detectors.interface import FailureDetector
from repro.sim.engine import Simulator
from repro.sim.network import Network


class PerfectFailureDetector(FailureDetector):
    """Per-process detector driven by a :class:`PerfectFailureDetectorFabric`."""


class PerfectFailureDetectorFabric(CrashDetectionFabric):
    """An idealised detector: constant-delay crash detection, zero mistakes."""

    detector_class = PerfectFailureDetector

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        detection_time: float = 0.0,
        scan_interval: Optional[float] = None,
    ) -> None:
        if detection_time < 0:
            raise ValueError(f"detection_time must be >= 0, got {detection_time}")
        self.detection_time = detection_time
        super().__init__(sim, network, scan_interval=scan_interval)

    def _detection_time(self, monitor: int, monitored: int) -> float:
        return self.detection_time
