"""Cluster substrate: fleet membership, slots, racks, data placement,
blacklists.

Both scheduler planes keep their fleet as a :class:`Membership`: one
state byte per machine id (blacklisted and retired bits) and the live
totals. The centralized :class:`Cluster` adds a busy-slot column synced
with a Fenwick :class:`ClusterIndex` of free machines; no object exists
per machine.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.membership import Membership
from repro.cluster.datastore import DataStore
from repro.cluster.blacklist import Blacklist
from repro.cluster.index import ClusterIndex
from repro.cluster.policy import BlacklistPolicy, StrikeBlacklistPolicy
from repro.cluster.elastic import (
    AutoscalerPolicy,
    ElasticController,
    ReactiveAutoscaler,
    ScheduleAutoscaler,
)

__all__ = [
    "Cluster",
    "Membership",
    "DataStore",
    "Blacklist",
    "ClusterIndex",
    "BlacklistPolicy",
    "StrikeBlacklistPolicy",
    "AutoscalerPolicy",
    "ElasticController",
    "ReactiveAutoscaler",
    "ScheduleAutoscaler",
]
