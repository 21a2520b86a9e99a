"""Pluggable protocol-stack API.

A *stack* is a named, frozen composition of protocol layers (atomic
broadcast variant + its substrates) resolved through a registry; a *failure
detector kind* is an interchangeable fabric implementation attached to any
stack.  See :mod:`repro.stacks.api` for the contracts and
:mod:`repro.stacks.registry` for the built-in registrations.
"""

from repro.stacks.api import (
    FailureDetectorFabric,
    StackLayers,
    StackSpec,
    param,
)
from repro.stacks.registry import (
    available_fd_kinds,
    available_stacks,
    create_fd_fabric,
    get_fd_kind,
    get_stack,
    register_fd_kind,
    register_stack,
    resolve,
    split_stack,
    stack_variants,
    unregister_fd_kind,
    unregister_stack,
)

__all__ = [
    "FailureDetectorFabric",
    "StackLayers",
    "StackSpec",
    "available_fd_kinds",
    "available_stacks",
    "create_fd_fabric",
    "get_fd_kind",
    "get_stack",
    "param",
    "register_fd_kind",
    "register_stack",
    "resolve",
    "split_stack",
    "stack_variants",
    "unregister_fd_kind",
    "unregister_stack",
]
