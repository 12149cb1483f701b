"""Incrementally maintained cluster-state indexes.

The centralized simulator used to answer "which machines have a free
slot?" by scanning every machine — an O(machines) walk on every
dispatch iteration that capped it far below the 20k-slot regime the
decentralized path already reaches. Following the self-adjusting-
structure idea (keep the index consistent under updates instead of
rescanning), :class:`ClusterIndex` maintains a Fenwick tree over machine
ids with a set bit for every machine that currently has a free slot:

* ``free_machine_count`` — O(1);
* ``nth_free_machine(k)`` — the k-th free machine *in ascending
  machine-id order*, O(log machines) via binary descent;
* ``set_machine(machine_id, is_free)`` — O(log machines), no-op when
  the bit is unchanged; slot traffic, blacklisting and retirement all
  go through it;
* ``append_machine(bit)`` — O(log machines) elastic growth.

``rebuild`` (O(machines)) runs only when the index is built and when a
run resets the cluster.

The bits are a ``bytearray`` and the tree a list of ints, so a machine
costs one byte plus one list slot here: nodes covering at most 256 ids
hold cached small ints, and only the few above that own an int object.

Ascending-id enumeration order is load-bearing: it makes
``nth_free_machine(rng.randrange(count))`` consume the same entropy and
return the same machine as the old ``rng.choice(machines_with_free_
slots())``, so replays are bit-identical to the scan-based simulator
(see ``tests/test_golden_results.py``).

Per-job indexes (pending-task locality buckets, running-copy counters)
live on :class:`repro.runtime.JobRuntime`; this module owns the
cluster-wide machine index.
"""

from __future__ import annotations

from typing import Iterable, List, Optional


class ClusterIndex:
    """Fenwick-tree free-slot index over machine ids.

    ``bits`` holds one byte per machine id, 1 while the machine has a
    free slot and is neither blacklisted nor retired (what
    ``Cluster.free_bits`` scans); it is read-only outside this class.
    :class:`repro.cluster.cluster.Cluster` syncs the relevant bit on
    every slot acquire/release, resize, eviction and reinstatement, and
    rebuilds the index wholesale from its columns only on reset.
    """

    __slots__ = ("_size", "_tree", "bits", "_top_bit", "free_machine_count")

    def __init__(self, bits: Iterable[int]) -> None:
        self.rebuild(bits)

    # -- construction -------------------------------------------------------

    def rebuild(self, bits: Iterable[int]) -> None:
        """Recompute the whole index from one 0/1 bit per machine id
        (O(machines))."""
        bits = bytearray(bits)
        n = len(bits)
        self._size = n
        self._top_bit = 1 << (n.bit_length() - 1) if n else 0
        self.bits = bits
        self.free_machine_count = sum(bits)
        # O(n) Fenwick build: each node accumulates into its parent.
        tree = [0]
        tree += bits
        for i in range(1, n + 1):
            parent = i + (i & -i)
            if parent <= n:
                tree[parent] += tree[i]
        self._tree = tree

    # -- updates ------------------------------------------------------------

    def _prefix(self, count: int) -> int:
        """Sum of the first ``count`` bits (O(log machines))."""
        tree = self._tree
        total = 0
        while count:
            total += tree[count]
            count -= count & -count
        return total

    def append_machine(self, bit: int) -> None:
        """Extend the index by one machine id whose free bit is ``bit``
        (O(log machines)).

        Elastic growth appends machines instead of rebuilding: the new
        Fenwick node's value is the bit-sum of the id range it covers,
        recoverable from prefix sums over the existing tree — no O(n)
        rebuild on the resize path.
        """
        j = self._size + 1
        span_start = j - (j & -j)
        self._tree.append(self._prefix(j - 1) - self._prefix(span_start) + bit)
        self.bits.append(bit)
        self._size = j
        self._top_bit = 1 << (j.bit_length() - 1)
        self.free_machine_count += bit

    def set_machine(self, machine_id: int, is_free: bool) -> None:
        """Record that ``machine_id`` gained/lost its last free slot."""
        bit = 1 if is_free else 0
        bits = self.bits
        if bits[machine_id] == bit:
            return
        bits[machine_id] = bit
        delta = 1 if bit else -1
        self.free_machine_count += delta
        tree = self._tree
        size = self._size
        j = machine_id + 1
        while j <= size:
            tree[j] += delta
            j += j & -j

    # -- queries ------------------------------------------------------------

    def nth_free_machine(self, k: int) -> int:
        """Id of the k-th (0-based) free machine in ascending-id order."""
        if not 0 <= k < self.free_machine_count:
            raise IndexError(
                f"free-machine index {k} out of range "
                f"(count={self.free_machine_count})"
            )
        tree = self._tree
        size = self._size
        pos = 0
        remaining = k + 1
        bit = self._top_bit
        while bit:
            nxt = pos + bit
            if nxt <= size and tree[nxt] < remaining:
                pos = nxt
                remaining -= tree[nxt]
            bit >>= 1
        return pos

    def first_free_machine(self) -> Optional[int]:
        """Lowest-id machine with a free slot, or None."""
        if not self.free_machine_count:
            return None
        return self.nth_free_machine(0)

    def free_machine_ids(self) -> List[int]:
        """All free machine ids, ascending (for tests/debugging)."""
        return [i for i, bit in enumerate(self.bits) if bit]

    def __len__(self) -> int:
        return self._size
