"""Decentralized scheduling: Sparrow, Sparrow-SRPT and decentralized Hopper.

Multiple autonomous schedulers place reservation requests ("probes") on
workers; workers *late-bind*: when a slot frees, the worker picks a queued
request and asks the owning scheduler for a task. Hopper's worker policy
implements Pseudocode 3 (SRPT-by-virtual-size with refusable responses and
a non-refusable fallback); schedulers implement Pseudocode 2.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "config": ("DecentralizedConfig", "WorkerPolicy"),
        "messages": ("JobGossip", "Request", "ResponseType"),
        "simulator": ("DecentralizedSimulator",),
    },
)
