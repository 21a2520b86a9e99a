"""Client populations driving the load-tested replicated service.

Two standard load-generation disciplines over the KV command set:

* :class:`OpenLoopClients` -- an *arrival process* (Poisson or uniform)
  at a configured offered load, independent of the service's state.  This
  generalizes the paper's Section 5.1 microbenchmark workload
  (:class:`repro.workload.generator.PoissonWorkload`) from opaque payloads
  to service requests: an open loop keeps offering load past saturation,
  which is what exposes capacity limits and backpressure behaviour.
* :class:`ClosedLoopClients` -- ``N`` clients that each keep exactly one
  request outstanding: submit, wait for the reply, think for an
  exponentially distributed time, repeat.  A closed loop self-throttles at
  saturation (offered load tracks completion rate), the classic
  interactive-user model.

Both draw all randomness (arrival gaps, think times, senders, command mix)
from dedicated named streams of the system's root seed, so a load run is as
deterministic as every other scenario in the repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.metrics.stats import interarrival_from_throughput
from repro.replication.state_machine import Command
from repro.sim.process import live_sender

#: Arrival disciplines of the open-loop population.
ARRIVALS = ("poisson", "uniform")


@dataclass(frozen=True)
class CommandMix:
    """Operation mix of a synthetic KV workload (weights need not sum to 1).

    ``keyspace`` keys are drawn uniformly, giving natural key contention.
    The default mix is write-heavy on purpose: writes must go through the
    total order under every consistency mode, so they keep the broadcast
    layer honest while ``get`` traffic exercises the consistency axis.
    """

    put: float = 0.5
    get: float = 0.3
    increment: float = 0.15
    delete: float = 0.05
    keyspace: int = 64
    #: ``(operation, weight)`` in draw order and the weights' sum, built once.
    _weights: tuple = field(init=False, repr=False, compare=False)
    _total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = (
            ("put", self.put),
            ("get", self.get),
            ("increment", self.increment),
            ("delete", self.delete),
        )
        total = sum(weight for _op, weight in weights)
        if any(weight < 0 for _op, weight in weights) or total <= 0:
            raise ValueError(f"command mix weights must be >= 0 and not all zero: {self}")
        if self.keyspace < 1:
            raise ValueError(f"keyspace must be >= 1, got {self.keyspace}")
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_total", total)

    def draw(self, rng, client: int, request_id: int) -> Command:
        """Draw one command from the mix using ``rng``."""
        weights = self._weights
        pick = rng.random() * self._total
        operation = weights[-1][0]
        for op, weight in weights:
            if pick < weight:
                operation = op
                break
            pick -= weight
        # Counters live in their own key range: increment requires numeric
        # values and would type-clash with string-valued puts on shared keys.
        prefix = "ctr" if operation == "increment" else "key"
        key = f"{prefix}-{rng.randrange(self.keyspace)}"
        value = f"v{client}.{request_id}" if operation == "put" else None
        return Command(
            operation=operation,
            key=key,
            value=value,
            client=client,
            request_id=request_id,
        )


class _ClientPopulation:
    """Shared plumbing: sender assignment, request numbering, the mix."""

    def __init__(
        self,
        service,
        num_clients: int,
        mix: Optional[CommandMix],
        senders: Optional[Sequence[int]],
    ) -> None:
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        # The service and the parts it keeps, never the system itself.
        self.service = service
        self._sim = service.sim
        self._processes = service.processes
        self.num_clients = num_clients
        self.mix = mix if mix is not None else CommandMix()
        self._rng = service.rng.stream("load-clients")
        self.senders: List[int] = (
            list(senders) if senders is not None else list(range(len(self._processes)))
        )
        if not self.senders:
            raise ValueError("at least one ingress replica is required")
        #: Requests issued so far (the global request counter).
        self.issued = 0

    def _sender_for(self, client: int) -> int:
        """Ingress replica of ``client``: round-robin, skipping crashed ones."""
        preferred = self.senders[client % len(self.senders)]
        return live_sender(self._processes, self.senders, preferred)

    def _next_command(self, client: int) -> Command:
        request_id = self.issued
        self.issued += 1
        return self.mix.draw(self._rng, client, request_id)


class OpenLoopClients(_ClientPopulation):
    """An open-loop arrival process submitting service requests.

    Arrivals are pre-scheduled on the kernel (like the paper's workload
    generator): ``offered_load`` requests per second with ``arrival``
    discipline ``"poisson"`` (exponential gaps) or ``"uniform"`` (gaps
    uniform in ``[0, 2/rate]``, same mean, lower variance).  Each arrival
    belongs to a uniformly drawn client, enters through the client's
    round-robin ingress replica, and is handed to
    :meth:`repro.load.service.LoadTestedService.submit`.
    """

    def __init__(
        self,
        service,
        offered_load: float,
        num_clients: int = 1,
        arrival: str = "poisson",
        mix: Optional[CommandMix] = None,
        senders: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(service, num_clients, mix, senders)
        if offered_load <= 0:
            raise ValueError(f"offered_load must be positive, got {offered_load}")
        if arrival not in ARRIVALS:
            raise ValueError(f"unknown arrival discipline {arrival!r}; expected one of {ARRIVALS}")
        self.offered_load = offered_load
        self.arrival = arrival

    @property
    def mean_interarrival(self) -> float:
        """Mean request gap in ms."""
        return interarrival_from_throughput(self.offered_load)

    def schedule_requests(self, count: int, start_time: float = 0.0) -> float:
        """Pre-schedule ``count`` arrivals; returns the last arrival time."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        mean = self.mean_interarrival
        time = start_time
        for _ in range(count):
            if self.arrival == "poisson":
                time += self._rng.expovariate(1.0 / mean)
            else:
                time += self._rng.uniform(0.0, 2.0 * mean)
            client = self._rng.randrange(self.num_clients)
            self._sim.post_at(time, self._emit, client)
        return time

    def _emit(self, client: int) -> None:
        command = self._next_command(client)
        self.service.submit(self._sender_for(client), command)


class ClosedLoopClients(_ClientPopulation):
    """``N`` clients, one outstanding request each, exponential think times.

    Every client loops submit -> reply -> think.  A shed request completes
    immediately (the admission layer said no), so a closed-loop client never
    deadlocks on backpressure; it just thinks and tries again.  ``start``
    staggers the first submissions over one mean think time so the
    population does not arrive as a single burst at t=0 (with
    ``think_time=0`` the stagger collapses and all clients hit the service
    at the start instant -- the maximum-pressure configuration).

    ``total_requests`` bounds the run: once the population has issued that
    many requests, clients stop instead of submitting again.  The population
    subscribes once to the service's completions and recognises its own
    requests by their command.  It unsubscribes when it issues its last
    request, after which no completion can start another: the subscription
    is the service's only reference to the population, so a finished run
    leaves no cycle between the two for the collector.
    """

    def __init__(
        self,
        service,
        num_clients: int,
        think_time: float,
        mix: Optional[CommandMix] = None,
        senders: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(service, num_clients, mix, senders)
        if think_time < 0:
            raise ValueError(f"think_time must be >= 0 ms, got {think_time}")
        self.think_time = think_time
        self._total = 0
        self._started = False
        #: Each client's outstanding command: how a completion is recognised as ours.
        self._waiting: Dict[int, Command] = {}

    def start(self, total_requests: int) -> None:
        """Launch the population; it stops after ``total_requests`` submissions."""
        if self._started:
            raise RuntimeError("the client population is already running")
        if total_requests < 1:
            raise ValueError(f"total_requests must be >= 1, got {total_requests}")
        self._started = True
        self._total = total_requests
        self.service.add_completion_listener(self._on_complete)
        for client in range(self.num_clients):
            self._sim.post_at(self._sim.now + self._think_delay(), self._submit_next, client)

    def _think_delay(self) -> float:
        if self.think_time <= 0:
            return 0.0
        return self._rng.expovariate(1.0 / self.think_time)

    def _submit_next(self, client: int) -> None:
        if self.issued >= self._total:
            return
        command = self._waiting[client] = self._next_command(client)
        if self.issued >= self._total:
            self.service.remove_completion_listener(self._on_complete)
        self.service.submit(self._sender_for(client), command)

    def _on_complete(self, request) -> None:
        client = request.command.client
        if self._waiting.get(client) is not request.command or self.issued >= self._total:
            return
        # Always go through the kernel, even with zero think time: a shed
        # request completes synchronously inside submit(), and re-submitting
        # inline would recurse one stack frame per shed request.
        delay = self._think_delay()
        self._sim.post_at(self._sim.now + delay, self._submit_next, client)


__all__ = ["ARRIVALS", "ClosedLoopClients", "CommandMix", "OpenLoopClients"]
