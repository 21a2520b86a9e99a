"""Pluggable protocol-stack API.

A *stack* is a named, frozen composition of protocol layers (atomic
broadcast variant + its substrates) resolved through a registry; a *failure
detector kind* is an interchangeable fabric implementation attached to any
stack (a :class:`~repro.failure_detectors.interface.DetectorFabric`).  See
:mod:`repro.stacks.api` for the contracts and
:mod:`repro.stacks.registry` for the built-in registrations.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.stacks.api": ("StackLayers", "StackSpec", "param"),
        "repro.stacks.registry": (
            "available_fd_kinds",
            "available_stacks",
            "create_fd_fabric",
            "get_fd_kind",
            "get_stack",
            "register_fd_kind",
            "register_stack",
            "resolve",
            "split_stack",
            "stack_variants",
            "unregister_fd_kind",
            "unregister_stack",
        ),
    },
)
