"""Cluster substrate: machine-id columns, slots, racks, data placement,
blacklists.

The centralized fleet is a :class:`Cluster` of per-machine-id columns
(busy and slot counts, blacklisted and retired flags) synced with a
Fenwick :class:`ClusterIndex` of free machines; no object exists per
machine.
"""

from repro.cluster.cluster import Cluster
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
