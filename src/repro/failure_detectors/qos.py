"""QoS-model failure detectors (Chen, Toueg, Aguilera).

The fabric owns one :class:`QoSFailureDetector` per process and drives all
``n * (n - 1)`` monitor pairs directly from the simulation clock, without
exchanging any messages.  This is the abstraction used by the paper
(Section 6.2):

* the detection time ``T_D`` is a constant,
* the mistake recurrence time ``T_MR`` and the mistake duration ``T_M`` are
  exponentially distributed,
* all monitor pairs are independent.

The paper assumes all pairs are identically distributed; this implementation
additionally supports **asymmetric per-pair QoS**: any ordered pair
``(monitor, monitored)`` can override the global parameters (for instance one
flaky observer that wrongly suspects one peer far more often than everyone
else), which is what the beyond-paper ``asymmetric-qos`` scenario sweeps.

Crash detection, trust restoration after recovery and the forced-suspicion
capabilities (:meth:`~repro.failure_detectors.fabric.CrashDetectionFabric.suspect_permanently`,
:meth:`~repro.failure_detectors.fabric.CrashDetectionFabric.suspect_during`)
come from the shared :class:`~repro.failure_detectors.fabric.CrashDetectionFabric`
base; this module adds the *random* mistake model on top: two more
transition kinds, ``_mistake_begins`` and ``_mistake_ends``, armed through
the base's pending-transition table, so they ride the batched calendar when
``scan_interval`` is set (see the fabric base) and are exact timers
otherwise.

One hot-path note.  Every pair caches its effective config and a bound
``expovariate`` per RNG stream (the draw *sequence* per stream is unchanged,
so results stay bit-identical -- the seed resolved the stream name with an
f-string and a dict lookup per draw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.failure_detectors.fabric import CrashDetectionFabric, Pair
from repro.failure_detectors.interface import FailureDetector
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import RandomStreams

INFINITY = float("inf")

#: The mistake model's pair transition kinds (see the fabric base).
MISTAKE_BEGINS = "_mistake_begins"
MISTAKE_ENDS = "_mistake_ends"

__all__ = ["INFINITY", "Pair", "QoSConfig", "QoSFailureDetector", "QoSFailureDetectorFabric"]


@dataclass(frozen=True)
class QoSConfig:
    """Quality-of-service parameters of the failure detectors.

    Attributes
    ----------
    detection_time:
        ``T_D``: time from a crash to its permanent detection (constant).
        Also the time from a recovery back to trust.
    mistake_recurrence_time:
        Mean of the exponential ``T_MR``: time between two consecutive wrong
        suspicions of a correct process.  ``inf`` disables wrong suspicions.
    mistake_duration:
        Mean of the exponential ``T_M``: how long a wrong suspicion lasts.
        Zero produces instantaneous mistakes (suspect and trust back-to-back,
        which still triggers the algorithms' reactions).
    pair_overrides:
        Per-pair overrides: ``(((monitor, monitored), QoSConfig), ...)``.
        The override applies to that ordered observer pair only; every other
        pair uses the top-level parameters.  Overrides cannot nest.
    """

    detection_time: float = 0.0
    mistake_recurrence_time: float = INFINITY
    mistake_duration: float = 0.0
    pair_overrides: Tuple[Tuple[Pair, "QoSConfig"], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.detection_time < 0:
            raise ValueError(f"detection_time must be >= 0, got {self.detection_time}")
        if self.mistake_recurrence_time <= 0:
            raise ValueError(
                "mistake_recurrence_time must be > 0 (use inf to disable mistakes), "
                f"got {self.mistake_recurrence_time}"
            )
        if self.mistake_duration < 0:
            raise ValueError(f"mistake_duration must be >= 0, got {self.mistake_duration}")
        for (monitor, monitored), override in self.pair_overrides:
            if monitor == monitored:
                raise ValueError(f"a process does not monitor itself: pair {monitor!r}")
            if override.pair_overrides:
                raise ValueError("pair overrides cannot nest further overrides")

    @property
    def generates_mistakes(self) -> bool:
        """Whether this configuration produces wrong suspicions at all."""
        if math.isfinite(self.mistake_recurrence_time):
            return True
        return any(
            math.isfinite(override.mistake_recurrence_time)
            for _pair, override in self.pair_overrides
        )

    def pair(self, monitor: int, monitored: int) -> "QoSConfig":
        """The effective parameters of the ordered pair ``(monitor, monitored)``."""
        for pair, override in self.pair_overrides:
            if pair == (monitor, monitored):
                return override
        return self

    def with_pair(self, monitor: int, monitored: int, **changes: float) -> "QoSConfig":
        """A copy of this configuration with one per-pair override.

        Keyword arguments name the QoS fields that differ for the ordered
        pair (``detection_time``, ``mistake_recurrence_time``,
        ``mistake_duration``); every field *not* named inherits this
        configuration's value, so overriding the mistake parameters of one
        pair does not silently reset its detection time.
        """
        override = QoSConfig(
            detection_time=changes.pop("detection_time", self.detection_time),
            mistake_recurrence_time=changes.pop(
                "mistake_recurrence_time", self.mistake_recurrence_time
            ),
            mistake_duration=changes.pop("mistake_duration", self.mistake_duration),
        )
        if changes:
            raise TypeError(f"unknown QoS fields: {sorted(changes)}")
        kept = tuple(
            (pair, config)
            for pair, config in self.pair_overrides
            if pair != (monitor, monitored)
        )
        return QoSConfig(
            detection_time=self.detection_time,
            mistake_recurrence_time=self.mistake_recurrence_time,
            mistake_duration=self.mistake_duration,
            pair_overrides=kept + (((monitor, monitored), override),),
        )


class QoSFailureDetector(FailureDetector):
    """Per-process failure detector driven by a :class:`QoSFailureDetectorFabric`."""


def _constant_draw(value: float) -> Callable[[], float]:
    def draw() -> float:
        return value

    return draw


class QoSFailureDetectorFabric(CrashDetectionFabric):
    """Creates and drives the QoS failure detectors of every process."""

    detector_class = QoSFailureDetector
    kinds = CrashDetectionFabric.kinds + (MISTAKE_BEGINS, MISTAKE_ENDS)

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        rng: RandomStreams,
        config: QoSConfig,
        scan_interval: Optional[float] = None,
    ) -> None:
        self._rng = rng
        self.config = config
        # Per-pair cache of (effective config, recurrence draw, duration
        # draw).  The draws are bound ``expovariate`` calls on the pair's
        # named streams: same streams, same draw sequence as resolving the
        # stream by name per draw, minus the f-string and dict lookups.
        self._pair_cache: Dict[Pair, Tuple[QoSConfig, Callable[[], float], Callable[[], float]]] = {}
        super().__init__(sim, network, scan_interval=scan_interval)

    # ------------------------------------------------------------------ hooks

    def _pair_config(self, monitor: int, monitored: int) -> QoSConfig:
        return self._pair_state(monitor, monitored)[0]

    def _pair_state(
        self, monitor: int, monitored: int
    ) -> Tuple[QoSConfig, Callable[[], float], Callable[[], float]]:
        state = self._pair_cache.get((monitor, monitored))
        if state is None:
            config = self.config.pair(monitor, monitored)
            state = (
                config,
                self._make_draw(
                    f"fd/{monitor}/{monitored}/recurrence", config.mistake_recurrence_time
                ),
                self._make_draw(
                    f"fd/{monitor}/{monitored}/duration", config.mistake_duration
                ),
            )
            self._pair_cache[(monitor, monitored)] = state
        return state

    def _make_draw(self, name: str, mean: float) -> Callable[[], float]:
        # Degenerate means consume no randomness (and leave the stream
        # uncreated until a real draw).
        if mean == 0:
            return _constant_draw(0.0)
        if mean == INFINITY:
            return _constant_draw(INFINITY)
        # Inlined ``Random.expovariate(rate)``: same formula on the same
        # stream (``-log(1 - U) / rate``), so the draw sequence stays
        # bit-identical, minus one call frame per draw.
        uniform = self._rng.stream(name).random
        rate = 1.0 / mean
        log = math.log

        def draw() -> float:
            return -log(1.0 - uniform()) / rate

        return draw

    def _detection_time(self, monitor: int, monitored: int) -> float:
        return self._pair_config(monitor, monitored).detection_time

    def _cancel_mistakes(self, monitor: int, monitored: int) -> None:
        self._cancel(MISTAKE_BEGINS, monitor, monitored)
        self._cancel(MISTAKE_ENDS, monitor, monitored)

    def _resume_mistakes(self, monitor: int, monitored: int) -> None:
        if monitor in self._crashed or monitored in self._crashed:
            return
        self._cancel_mistakes(monitor, monitored)
        # Cancelling may have killed the end event of a wrong suspicion that
        # was in progress when the crash hit; lift it now or it never ends.
        # Real crash detections are excluded: those pairs have a pending
        # trust restoration that owns the (delayed) correction.
        detector = self._detectors[monitor]
        if (
            detector.is_suspected(monitored)
            and not self._trust_pending(monitor, monitored)
        ):
            detector._set_suspected(monitored, False)
        self._schedule_next_mistake(monitor, monitored)

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin generating wrong suspicions (call once before the run)."""
        super().start()
        if not self.config.generates_mistakes:
            return
        for monitor in self._detectors:
            for monitored in self._detectors[monitor].monitored:
                self._schedule_next_mistake(monitor, monitored)

    # ------------------------------------------------------------------ mistakes

    def _schedule_next_mistake(self, monitor: int, monitored: int) -> None:
        if monitored in self._crashed or monitor in self._crashed:
            return
        # Cache probed inline: one mistake schedules another, so this runs
        # once per mistake cycle and the hit path skips the helper frame.
        state = self._pair_cache.get((monitor, monitored))
        if state is None:
            state = self._pair_state(monitor, monitored)
        interval = state[1]()
        if interval == INFINITY:
            return
        self._after(MISTAKE_BEGINS, interval, monitor, monitored)

    def _mistake_begins(self, monitor: int, monitored: int) -> None:
        self._due[MISTAKE_BEGINS].pop((monitor, monitored), None)
        if monitored in self._crashed or monitor in self._crashed:
            return
        detector = self._detectors[monitor]
        state = self._pair_cache.get((monitor, monitored))
        if state is None:
            state = self._pair_state(monitor, monitored)
        duration = state[2]()
        if monitored not in detector._suspected:
            detector._set_suspected(monitored, True)
            if duration <= 0:
                # Instantaneous mistake: listeners see the suspicion and the
                # correction back-to-back, which is enough to trigger the
                # algorithms' failure-handling paths.
                detector._set_suspected(monitored, False)
            else:
                self._after(MISTAKE_ENDS, duration, monitor, monitored)
        self._schedule_next_mistake(monitor, monitored)

    def _mistake_ends(self, monitor: int, monitored: int) -> None:
        self._due[MISTAKE_ENDS].pop((monitor, monitored), None)
        if monitored in self._crashed:
            return
        self._detectors[monitor]._set_suspected(monitored, False)
