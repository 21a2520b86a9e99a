"""Named deterministic random streams.

Every stochastic component of an experiment (workload arrivals, failure
detector mistakes, crash times, ...) draws from its own named stream derived
from the experiment seed.  This keeps runs reproducible and, more
importantly, keeps the streams independent: changing how many numbers one
component consumes does not perturb any other component.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict


class RandomStreams:
    """A factory of independent :class:`random.Random` streams.

    >>> streams = RandomStreams(seed=42)
    >>> workload = streams.stream("workload")
    >>> fd = streams.stream("fd/3/1")
    >>> workload is streams.stream("workload")
    True
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The root seed all streams are derived from."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            derived = self._derive(name)
            self._streams[name] = random.Random(derived)
        return self._streams[name]

    def _derive(self, name: str) -> int:
        digest = zlib.crc32(name.encode("utf-8"))
        return (self._seed * 2_654_435_761 + digest) & 0xFFFFFFFFFFFF

