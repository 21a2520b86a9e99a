"""Declarative fault schedules.

A :class:`FaultSchedule` is a list of timed fault events -- crashes,
recoveries, correlated crash groups, forced wrong-suspicion windows,
network partitions (symmetric splits and asymmetric blocked links), gray
failures (degraded CPUs, lossy/duplicating links) and Poisson
crash-recovery churn generators -- that is *compiled onto* a
:class:`repro.system.BroadcastSystem` before a run.  The scenario drivers
stop hand-coding their fault logic: every scenario (the paper's four and the
beyond-paper ones) is "a workload plus a fault schedule", executed by the
:class:`repro.scenarios.runner.ScenarioRunner`.

A fault is one class: each :class:`FaultEvent` subclass declares its
parameters, the process ids it names (:meth:`FaultEvent.pids_named`) and the
kernel events it posts (:meth:`FaultEvent.schedule`: a ``post_at`` of the
bound method that enacts it on the system's processes, network or failure
detector fabric, or the fabric's own suspicion window).  :meth:`FaultSchedule.schedule` is one loop over the
timeline, so adding a fault kind touches nothing else.

Two kinds of events exist:

* **pre-run events** (``CrashAt`` with ``time <= 0``) are applied
  synchronously before the simulation starts, reproducing the crash-steady
  convention where crashes happened long before the measured window;
* **timed events** are scheduled on the simulation kernel and fire during
  the run.

Generators (:class:`PoissonChurn`) expand deterministically into concrete
crash/recovery pairs using the system's named random streams, so a churn
schedule is a pure function of the system seed.  Before anything is
applied or posted, :meth:`FaultSchedule.check` holds the schedule to the
system's ``n``: every pid an event names is a process, and no instant has
more than the ``f < n/2`` processes down.  The built-in scenario kinds call
it when a point is declared, so a bad schedule never reaches a worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.rng import RandomStreams

#: Canonical timing of the view-majority-loss schedule: the wrong-suspicion
#: window and the instant of the blocking crash inside it.  Shared with the
#: scenario driver defaults and with campaign-spec validation, so an
#: out-of-window ``crash_time`` is rejected before any simulation starts.
VML_SUSPECT_START = 50.0
VML_SUSPECT_DURATION = 400.0
VML_CRASH_TIME = 300.0


def minority(n: int) -> Tuple[int, ...]:
    """The top ``(n - 1) // 2`` pids: the largest side that leaves a majority."""
    return tuple(range(n - (n - 1) // 2, n))


def crashed_processes(n: int, count: int) -> Tuple[int, ...]:
    """The ``count`` highest-numbered (non-coordinator) processes.

    The paper's crash-steady convention: the coordinator re-numbering
    optimisation makes the steady state independent of *which* processes
    crashed, so the figures crash the highest pids.
    """
    return tuple(range(n - count, n))


class FaultEvent:
    """Base class of all fault-schedule events.

    A timed event posts its kernel events in :meth:`schedule`; a generator
    (:class:`PoissonChurn`) expands into timed events instead.
    """

    def pids_named(self) -> Tuple[int, ...]:
        """Every process id this event names (checked against the system)."""
        return ()

    def schedule(self, system) -> None:
        """Post this event's kernel events on ``system``'s simulator."""
        raise NotImplementedError(f"{type(self).__name__} does not schedule itself")


@dataclass(frozen=True)
class CrashAt(FaultEvent):
    """Crash ``pid`` at ``time``.

    With ``time <= 0`` the crash is applied before the simulation starts;
    ``permanent_suspicion`` additionally makes every failure detector suspect
    the process from the very beginning (the crash-steady convention, where
    crashes happened long before the measured window and all detection has
    completed).
    """

    time: float
    pid: int
    permanent_suspicion: bool = False

    def pids_named(self) -> Tuple[int, ...]:
        return (self.pid,)

    def schedule(self, system) -> None:
        system.sim.post_at(self.time, system.processes[self.pid].crash)
        if self.permanent_suspicion:
            system.sim.post_at(self.time, system.fd_fabric.suspect_permanently, self.pid)


@dataclass(frozen=True)
class RecoverAt(FaultEvent):
    """Recover ``pid`` at ``time`` (it rejoins and catches up via protocol)."""

    time: float
    pid: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"recoveries cannot predate the run, got time={self.time}")

    def pids_named(self) -> Tuple[int, ...]:
        return (self.pid,)

    def schedule(self, system) -> None:
        system.sim.post_at(self.time, system.processes[self.pid].recover)


@dataclass(frozen=True)
class CorrelatedCrash(FaultEvent):
    """Crash every process in ``pids`` at the same instant ``time``.

    The paper only ever crashes one process at a time; a correlated group
    models a shared-fate fault (rack power loss, correlated software bug).
    """

    time: float
    pids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"a correlated crash cannot predate the run, got time={self.time}")
        if not self.pids:
            raise ValueError(f"a correlated crash needs at least one process, got pids={self.pids}")
        if len(set(self.pids)) != len(self.pids):
            raise ValueError(f"duplicate pids in correlated crash group: {self.pids}")

    def pids_named(self) -> Tuple[int, ...]:
        return self.pids

    def schedule(self, system) -> None:
        for pid in self.pids:
            system.sim.post_at(self.time, system.processes[pid].crash)


@dataclass(frozen=True)
class SuspectDuring(FaultEvent):
    """Force a wrong suspicion of ``target`` during ``[start, start + duration]``.

    ``monitors`` restricts which observers make the mistake (default: all) --
    the deterministic complement of the random QoS mistake model, useful for
    worst-case asymmetric suspicion scenarios.
    """

    start: float
    duration: float
    target: int
    monitors: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")

    def pids_named(self) -> Tuple[int, ...]:
        return (self.target, *(self.monitors or ()))

    def schedule(self, system) -> None:
        system.suspect_during(self.target, self.start, self.duration, monitors=self.monitors)


@dataclass(frozen=True)
class PartitionAt(FaultEvent):
    """Partition the network at ``time``.

    ``groups`` lists the symmetric sides of the split: communication is only
    possible within a group, and every pid not listed becomes a singleton.
    ``links`` instead blocks individual *directed* ``(src, dst)`` links (an
    asymmetric partition -- e.g. A can reach B while B's frames to A are
    lost).  Exactly one of the two must be given.  Partitions replace each
    other: a later :class:`PartitionAt` supersedes the earlier mask, and
    :class:`HealAt` restores full connectivity.
    """

    time: float
    groups: Tuple[Tuple[int, ...], ...] = ()
    links: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"partitions cannot predate the run, got time={self.time}")
        if bool(self.groups) == bool(self.links):
            raise ValueError("a partition needs either groups or links (not both)")
        seen = set()
        for group in self.groups:
            for pid in group:
                if pid in seen:
                    raise ValueError(f"pid {pid} appears in more than one group")
                seen.add(pid)
        for link in self.links:
            if len(link) != 2 or link[0] == link[1]:
                raise ValueError(f"a blocked link must be a (src, dst) pair, got {link!r}")

    def pids_named(self) -> Tuple[int, ...]:
        return tuple(pid for side in (*self.groups, *self.links) for pid in side)

    def schedule(self, system) -> None:
        if self.groups:
            system.sim.post_at(
                self.time, system.network.partition, [tuple(group) for group in self.groups]
            )
        else:
            system.sim.post_at(
                self.time, system.network.block_links, [tuple(link) for link in self.links]
            )


@dataclass(frozen=True)
class HealAt(FaultEvent):
    """Heal every partition (and blocked link) at ``time``."""

    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"healing cannot predate the run, got time={self.time}")

    def schedule(self, system) -> None:
        system.sim.post_at(self.time, system.network.heal)


@dataclass(frozen=True)
class DegradeAt(FaultEvent):
    """Gray failure: slow the CPU of ``pid`` by ``factor`` from ``time`` on.

    The process stays alive and correct -- every job it serves just takes
    ``factor`` times as long -- so a well-calibrated failure detector must
    *not* permanently exclude it.  ``RestoreAt`` returns it to full speed.
    """

    time: float
    pid: int
    factor: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"degradations cannot predate the run, got time={self.time}")
        if self.factor < 1.0:
            raise ValueError(f"a degradation factor must be >= 1, got {self.factor}")

    def pids_named(self) -> Tuple[int, ...]:
        return (self.pid,)

    def schedule(self, system) -> None:
        system.sim.post_at(self.time, system.network.degrade_cpu, self.pid, self.factor)


@dataclass(frozen=True)
class RestoreAt(FaultEvent):
    """End a gray CPU degradation: ``pid`` runs at full speed from ``time``."""

    time: float
    pid: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"restorations cannot predate the run, got time={self.time}")

    def pids_named(self) -> Tuple[int, ...]:
        return (self.pid,)

    def schedule(self, system) -> None:
        system.sim.post_at(self.time, system.network.restore_cpu, self.pid)


@dataclass(frozen=True)
class DegradeLinkAt(FaultEvent):
    """Gray link: make the directed link ``src -> dst`` lossy/duplicating.

    Each frame crossing the link is independently dropped with
    ``loss_probability`` and (if not dropped) duplicated with
    ``duplicate_probability``, driven by the system's named random stream
    so runs stay deterministic per seed.  Scheduling the event with both
    probabilities zero restores the link.
    """

    time: float
    src: int
    dst: int
    loss_probability: float = 0.0
    duplicate_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"link faults cannot predate the run, got time={self.time}")
        if self.src == self.dst:
            raise ValueError("a link fault needs two distinct endpoints")
        for name in ("loss_probability", "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def pids_named(self) -> Tuple[int, ...]:
        return (self.src, self.dst)

    def schedule(self, system) -> None:
        system.sim.post_at(
            self.time,
            system.network.degrade_link,
            self.src,
            self.dst,
            self.loss_probability,
            self.duplicate_probability,
        )


@dataclass(frozen=True)
class PoissonChurn(FaultEvent):
    """Crash-recovery churn: a Poisson process of crashes, each with a downtime.

    Crash arrivals form a Poisson process of ``rate`` crashes/s over
    ``[0, until]``; each crash picks a uniformly random up process and
    keeps it down for an exponential downtime of mean ``mean_downtime`` ms.
    The generator never takes down more than the ``f < n/2`` bound of the
    system at once, so a churn schedule always keeps a correct majority --
    crash arrivals that would violate the bound are dropped.

    Expansion is driven by the system's random stream ``"churn"``: the
    concrete crash/recovery timeline is a deterministic function of the
    system seed.
    """

    rate: float
    mean_downtime: float
    until: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"churn rate must be > 0 crashes/s, got {self.rate}")
        if self.mean_downtime <= 0:
            raise ValueError(f"mean_downtime must be > 0 ms, got {self.mean_downtime}")
        if self.until <= 0:
            raise ValueError("the churn window must have positive length")

    def expand(
        self, system, external_downtime: Sequence[Tuple[float, float, int]] = ()
    ) -> List[FaultEvent]:
        """Generate the concrete crash/recovery events for ``system``.

        The draws come from a *fresh* stream factory seeded with the system
        seed (same derivation as ``system.rng``, independent state), so the
        expansion is a pure function of the seed: validating a schedule with
        :meth:`FaultSchedule.max_concurrent_crashes` and then applying it
        operates on the identical timeline.

        ``external_downtime`` lists ``(start, end, pid)`` windows during
        which other events of the same schedule keep ``pid`` down:
        :meth:`FaultSchedule.timeline` passes them so that churn neither
        re-crashes/revives a process another event controls nor exceeds the
        concurrency bound together with those events.
        """
        rng = RandomStreams(system.config.seed).stream("churn")
        n = system.config.n
        limit = system.config.max_tolerated_crashes()
        events: List[FaultEvent] = []
        down: List[Tuple[float, int]] = []  # (recovery_time, pid), kept sorted
        time = 0.0
        while True:
            time += rng.expovariate(self.rate / 1000.0)
            if time >= self.until:
                break
            down = [(recovery, pid) for recovery, pid in down if recovery > time]
            # Reserve every external window that has not ended yet (active
            # *or* upcoming): a churn downtime drawn now may still be open
            # when a future static crash fires, so only the slots left after
            # all outstanding windows are safe to churn.
            reserved = {pid for _start, end, pid in external_downtime if end > time}
            if len(down) + len(reserved) >= limit:
                continue  # the f < n/2 bound is tight right now: skip this crash
            busy = {pid for _recovery, pid in down} | reserved
            up = sorted(set(range(n)) - busy)
            if not up:
                continue
            pid = rng.choice(up)
            downtime = rng.expovariate(1.0 / self.mean_downtime)
            events.append(CrashAt(time, pid))
            events.append(RecoverAt(time + downtime, pid))
            down.append((time + downtime, pid))
        return events


@dataclass
class FaultSchedule:
    """An ordered collection of fault events compiled onto one system."""

    events: List[FaultEvent] = field(default_factory=list)

    # ------------------------------------------------------------------ building

    def add(self, event: FaultEvent) -> "FaultSchedule":
        """Append ``event`` (chainable)."""
        self.events.append(event)
        return self

    @staticmethod
    def pre_crashed(pids: Sequence[int]) -> "FaultSchedule":
        """The crash-steady schedule: ``pids`` down and suspected from t = 0."""
        return FaultSchedule(
            [CrashAt(0.0, pid, permanent_suspicion=True) for pid in pids]
        )

    @staticmethod
    def partition_transient(
        n: int, start: float, duration: float
    ) -> "FaultSchedule":
        """The canonical transient partition: split off a minority, then heal.

        The :func:`minority` is cut off from the majority.  The
        minority must never deliver past the epoch fence while partitioned
        (its views cannot gather a majority), and after healing every
        process converges back onto one total order.
        """
        if n < 3:
            raise ValueError(f"a transient partition needs n >= 3, got n={n}")
        if duration <= 0:
            raise ValueError(f"partition_duration must be > 0 ms, got {duration}")
        cut_off = minority(n)
        majority = tuple(range(n - len(cut_off)))
        return FaultSchedule(
            [
                PartitionAt(start, groups=(majority, cut_off)),
                HealAt(start + duration),
            ]
        )

    @staticmethod
    def view_majority_loss(
        n: int,
        suspect_start: float = VML_SUSPECT_START,
        suspect_duration: float = VML_SUSPECT_DURATION,
        crash_time: float = VML_CRASH_TIME,
    ) -> "FaultSchedule":
        """The canonical schedule driving a GM group into view-majority loss.

        Two composed faults reproduce the blocked state deterministically:

        1. a :class:`SuspectDuring` window makes every monitor wrongly
           suspect the ``(n - 1) // 2`` highest-numbered processes, so the
           installed view shrinks to the ``ceil((n + 1) / 2)`` lowest pids;
        2. a :class:`CrashAt` then *really* crashes the highest-numbered
           members of the shrunken view -- just enough of them that the
           alive members no longer form a majority of that view, while a
           global majority of all ``n`` processes stays alive.

        Under the plain GM stacks no view change can ever decide again (the
        paper's liveness limit, detected by the
        ``gm_blocked_by_view_majority_loss`` property); under ``gm-reform``
        the stalled view change escalates to a reformation.  The suspicion
        window ends before a default-timeout reformation proposes, so the
        wrongly excluded processes are trusted again and re-admitted.

        Odd ``n >= 3`` uses the single-window construction.  Even ``n >= 4``
        cannot cross the view majority in one shrink (removing ``(n-1)//2``
        members from an even view leaves an alive majority), so it stages
        two suspicion windows: the first suspects only the highest pid,
        shrinking to the odd view ``{0..n-2}``; a second window starting
        midway between ``suspect_start`` and ``crash_time`` then suspects
        the top ``(n-2)/2`` of that view, reaching the same blocked shape
        with the shrunken view ``{0..n/2-1}``.  Both windows end together,
        so the reformation re-admits every wrongly suspected process.
        """
        if n < 3:
            raise ValueError(f"view-majority loss needs a group size n >= 3, got n={n}")
        if not suspect_start < crash_time < suspect_start + suspect_duration:
            raise ValueError(
                "the blocking crash must fire inside the suspicion window "
                f"(need {suspect_start} < crash_time < "
                f"{suspect_start + suspect_duration}, got {crash_time}); outside "
                "it the view keeps an alive majority and never blocks"
            )
        window_end = suspect_start + suspect_duration
        events: List[FaultEvent] = []
        if n % 2 == 0:
            # Stage 1: drop the highest pid, making the view odd.
            events.append(SuspectDuring(suspect_start, suspect_duration, n - 1))
            # Stage 2: midway to the crash, drop the top (n-2)/2 of the
            # intermediate view {0..n-2} -- an odd-sized view, so this
            # single shrink crosses its majority exactly as the odd-n case.
            stage2_start = (suspect_start + crash_time) / 2.0
            intermediate = n - 1
            suspected = minority(intermediate)
            events.extend(
                SuspectDuring(stage2_start, window_end - stage2_start, target)
                for target in suspected
            )
            shrunken = intermediate - len(suspected)
        else:
            suspected = minority(n)
            events.extend(
                SuspectDuring(suspect_start, suspect_duration, target)
                for target in suspected
            )
            shrunken = n - len(suspected)
        # Crash the highest members of the shrunken view {0..shrunken-1},
        # leaving the sequencer p0 alive: one fewer alive member than the
        # shrunken view's majority, the minimal blocking crash count.
        crash_count = shrunken - shrunken // 2
        crashed = tuple(range(shrunken - crash_count, shrunken))
        events.extend(CrashAt(crash_time, pid) for pid in crashed)
        return FaultSchedule(events)

    # ------------------------------------------------------------------ queries

    def pre_run_events(self) -> List[CrashAt]:
        """The events applied synchronously before the simulation starts."""
        return [
            event
            for event in self.events
            if isinstance(event, CrashAt) and event.time <= 0.0
        ]

    def timeline(self, system=None) -> List[FaultEvent]:
        """Concrete timed events in declaration order (generators expanded).

        Expanding a :class:`PoissonChurn` requires ``system`` (its random
        streams drive the generator); without one, generators are returned
        unexpanded.  The generators see the downtime windows of the
        schedule's explicit events, so churn composes with static crashes
        without touching their processes or breaching the concurrency bound.
        """
        concrete: List[FaultEvent] = []
        static_windows = self._static_downtime()
        for event in self.events:
            if isinstance(event, PoissonChurn):
                concrete.extend(
                    event.expand(system, external_downtime=static_windows)
                    if system is not None
                    else [event]
                )
            elif not (isinstance(event, CrashAt) and event.time <= 0.0):
                concrete.append(event)
        return concrete

    def _static_downtime(self) -> List[Tuple[float, float, int]]:
        """Downtime windows ``(start, end, pid)`` of the explicit events.

        A crash without a matching later recovery keeps its process down
        forever.  Pre-run crashes count from time zero.
        """
        recoveries: Dict[int, List[float]] = {}
        for event in self.events:
            if isinstance(event, RecoverAt):
                recoveries.setdefault(event.pid, []).append(event.time)
        windows: List[Tuple[float, float, int]] = []

        def close(start: float, pid: int) -> None:
            later = sorted(t for t in recoveries.get(pid, []) if t >= start)
            windows.append((start, later[0] if later else float("inf"), pid))

        for event in self.events:
            if isinstance(event, CrashAt):
                close(max(event.time, 0.0), event.pid)
            elif isinstance(event, CorrelatedCrash):
                for pid in event.pids:
                    close(event.time, pid)
        return windows

    def max_concurrent_crashes(self, system=None) -> int:
        """Largest number of processes simultaneously down under this schedule.

        A generator (:class:`PoissonChurn`) counts only when ``system`` is
        given to expand it; without one it is left out, which is what
        :meth:`check` needs: churn caps itself at the bound around the
        explicit events' downtime.
        """
        deltas: List[Tuple[float, int]] = [(0.0, 1) for _ in self.pre_run_events()]
        for event in self.timeline(system):
            if isinstance(event, CrashAt):
                deltas.append((event.time, 1))
            elif isinstance(event, CorrelatedCrash):
                deltas.append((event.time, len(event.pids)))
            elif isinstance(event, RecoverAt):
                deltas.append((event.time, -1))
        worst = current = 0
        # Recoveries at the same instant as crashes are counted first: a
        # process that recovers at t frees its slot for a crash at t.
        for _time, delta in sorted(deltas, key=lambda d: (d[0], d[1])):
            current += delta
            worst = max(worst, current)
        return worst

    # ------------------------------------------------------------------ compilation

    def check(self, n: int) -> "FaultSchedule":
        """Hold the schedule to ``n`` processes (chainable).

        Raise ``ValueError`` naming the first event with a pid outside
        ``0..n-1``, or when more than the ``f < n/2`` processes are down at
        one instant (:meth:`max_concurrent_crashes`).
        """
        for event in self.events:
            for pid in event.pids_named():
                if not 0 <= pid < n:
                    raise ValueError(
                        f"{event!r} names process {pid}, but the system has "
                        f"processes 0..{n - 1}"
                    )
        worst = self.max_concurrent_crashes()
        if 2 * worst >= n:
            raise ValueError(f"{worst} crashes exceed the f < n/2 bound for n={n}")
        return self

    def apply_pre(self, system) -> None:
        """Apply the pre-run crashes synchronously (before the run starts)."""
        self.check(system.config.n)
        for event in self.pre_run_events():
            system.crash(event.pid)
            if event.permanent_suspicion:
                system.suspect_permanently(event.pid)

    def schedule(self, system) -> None:
        """Post every timed event on the system's simulation kernel."""
        self.check(system.config.n)
        for event in self.timeline(system):
            event.schedule(system)

    def apply(self, system) -> None:
        """Compile the whole schedule onto ``system`` (pre events + timed)."""
        self.apply_pre(system)
        self.schedule(system)
