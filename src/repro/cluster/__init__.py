"""Cluster substrate: fleet membership, slots, racks, data placement,
blacklists.

Both scheduler planes keep their fleet as a :class:`Membership`: one
state byte per machine id (blacklisted and retired bits) and the live
totals. The centralized :class:`Cluster` adds a busy-slot column synced
with a Fenwick :class:`ClusterIndex` of free machines; no object exists
per machine.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "cluster": ("Cluster",),
        "membership": ("Membership",),
        "datastore": ("DataStore",),
        "blacklist": ("Blacklist",),
        "index": ("ClusterIndex",),
        "policy": ("BlacklistPolicy", "StrikeBlacklistPolicy"),
        "elastic": (
            "AutoscalerPolicy",
            "ElasticController",
            "ReactiveAutoscaler",
            "ScheduleAutoscaler",
        ),
    },
)
