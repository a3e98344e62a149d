"""Sharded scan execution: row-range partitioning + partial-aggregate merge.

The third rung of the scale-out progression (batch -> async ->
**sharded**). The batch layer collapsed a dashboard refresh into a few
shared scans; the concurrency layer overlapped independent scan groups;
this package splits each scan group's *base scan itself* across
contiguous row-range shards so a single large table no longer executes
as one monolithic task:

- :mod:`repro.sharding.partition` — :class:`Partitioner` /
  :class:`RowRange`, the deterministic near-equal contiguous split.
- :mod:`repro.sharding.executor` — one sharded-run base holding the
  per-(group, shard) scan tasks, remote jobs and the merge step that
  re-aggregates per-shard partials through the engine, with two thin
  leaves: :class:`ShardedGroupRun` (one partial per fusion class) and
  :class:`MultiPlanShardedRun` (one combined finest-grouping pass per
  shard, see :mod:`repro.engine.multiplan`); and
  :func:`plan_sharded_group`, the shardability gate.

Every per-shard partial and its merge is planned by
:func:`repro.engine.multiplan.build_multiplan`, the one home of the
aggregate decomposition (AVG into SUM/COUNT, the merge expressions)
and of the argument that the merged result is exact. The scheduling
seam is the one loop in
:meth:`repro.concurrency.executor.ScanGroupExecutor.run`,
where ``shards`` replaces "one task per group" with "one task per
(group, shard), then merge"; on threads ``shards=1`` is byte-for-byte
the pre-existing path.
"""

from repro.sharding.executor import (
    MultiPlanShardedRun,
    ShardedGroupRun,
    plan_sharded_group,
)
from repro.sharding.partition import Partitioner, RowRange

__all__ = [
    "MultiPlanShardedRun",
    "Partitioner",
    "RowRange",
    "ShardedGroupRun",
    "plan_sharded_group",
]
