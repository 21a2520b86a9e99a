"""The deterministic key-value store replicated over atomic broadcast."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Command:
    """One request submitted to the replicated service.

    Attributes
    ----------
    operation:
        Operation name: ``"put"``, ``"get"``, ``"delete"`` or
        ``"increment"``.
    key / value:
        Operands of the operation.
    client:
        Identifier of the submitting client (used to route the reply).
    request_id:
        Client-local request number, so replies can be matched to requests.
    """

    operation: str
    key: str = ""
    value: Any = None
    client: int = 0
    request_id: int = 0


class KeyValueStore:
    """A small deterministic key-value store."""

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}

    def apply(self, command: Command) -> Any:
        """Apply one command; unknown operations raise ``ValueError``."""
        if command.operation == "put":
            self._data[command.key] = command.value
            return ("ok", command.key)
        if command.operation == "get":
            return ("value", self._data.get(command.key))
        if command.operation == "delete":
            existed = command.key in self._data
            self._data.pop(command.key, None)
            return ("deleted", existed)
        if command.operation == "increment":
            amount = command.value if command.value is not None else 1
            current = self._data.get(command.key, 0)
            self._data[command.key] = current + amount
            return ("value", self._data[command.key])
        raise ValueError(f"unknown operation {command.operation!r}")

    def get(self, key: str, default: Any = None) -> Any:
        """Read a key directly (test/inspection helper, not replicated)."""
        return self._data.get(key, default)

    def snapshot(self) -> Tuple[Tuple[str, Any], ...]:
        """Sorted tuple of the store contents (comparable across replicas)."""
        return tuple(sorted(self._data.items()))
