"""The per-row hash-loop grouping, kept as the reference the codes are tested against.

This is the vectorized store's ``_assign_group_ids`` as it was before
dictionary encoding: a single float key grouped through ``np.unique``
over a NaN sentinel, every other key shape through a Python loop that
builds one canonical key tuple per row and looks it up in a dict. It
exists only so that ``tests/test_grouping_codes.py`` can assert the
encoded kernel assigns identical ids and key tuples; nothing under
``src/`` imports it.

The single-float path carries the NULL-merging defect the encoded
kernel fixes (the sentinel ``finite.min() - 1.0`` equals ``min`` once
``|min| >= 2**53``); :func:`sentinel_collides` tells the tests when
that path's answer is not the reference.
"""

from __future__ import annotations

import numpy as np


def _assign_group_ids(
    key_arrays: list[np.ndarray], num_rows: int
) -> tuple[np.ndarray, list[tuple[object, ...]]]:
    """Dense group ids + the distinct key tuple for each id.

    Single float keys (the common case: one grouping column, or a
    binned/derived temporal dimension) are grouped entirely in numpy via
    ``np.unique``; everything else falls back to a hash loop.
    """
    if len(key_arrays) == 1 and key_arrays[0].dtype == np.float64:
        values = key_arrays[0]
        # NaN keys group together (SQL groups NULLs): substitute a
        # sentinel below the data range, which np.unique sorts first.
        nan_mask = np.isnan(values)
        if nan_mask.any():
            finite = values[~nan_mask]
            sentinel = (float(finite.min()) - 1.0) if finite.size else 0.0
            values = np.where(nan_mask, sentinel, values)
        unique, gids = np.unique(values, return_inverse=True)
        key_list = [
            (None,)
            if nan_mask.any() and _was_nan_group(key_arrays[0], gids, gid)
            else (_canonical_key(float(unique[gid])),)
            for gid in range(len(unique))
        ]
        return gids.astype(np.int64), key_list
    gids = np.empty(num_rows, dtype=np.int64)
    keys: dict[tuple[object, ...], int] = {}
    key_list2: list[tuple[object, ...]] = []
    columns = [list(a) for a in key_arrays]
    for i in range(num_rows):
        key = tuple(_canonical_key(col[i]) for col in columns)
        gid = keys.get(key)
        if gid is None:
            gid = len(key_list2)
            keys[key] = gid
            key_list2.append(key)
        gids[i] = gid
    return gids, key_list2


def _was_nan_group(
    original: np.ndarray, gids: np.ndarray, gid: int
) -> bool:
    """Whether group ``gid``'s members were NaN before substitution."""
    members = np.flatnonzero(gids == gid)
    return members.size > 0 and bool(np.isnan(original[members[0]]))


def _canonical_key(value: object) -> object:
    """NaN group keys behave as NULL; integral floats become ints."""
    if isinstance(value, float):
        if np.isnan(value):
            return None
        if value == int(value):
            return int(value)
    return value


def sentinel_collides(values: np.ndarray) -> bool:
    """Whether the single-float path's NULL sentinel equals a data value."""
    nan_mask = np.isnan(values)
    finite = values[~nan_mask]
    if not nan_mask.any() or not finite.size:
        return False
    return float(finite.min()) - 1.0 == float(finite.min())
