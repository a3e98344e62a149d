"""Dictionary encoding of column values for the vectorized store.

Grouping and object-column predicates run over one int64 *code* per row
instead of over Python values. Two rows share a code exactly when their
:func:`canonical_key` values are equal: ``1``, ``1.0`` and ``True``
share one, ``NaN`` and ``None`` share the NULL code 0, ``-0.0`` shares
``0.0``'s. A table column is encoded once and the encoding is cached on
the immutable :class:`~repro.engine.table.Table`
(:meth:`~repro.engine.table.Table.encoding`); a table cut from another
(:meth:`~repro.engine.table.Table.take`) takes its base's codes at the
rows it kept instead of encoding its own copy of the values.
"""

from __future__ import annotations

import numpy as np

#: The code of NULL (``None`` and NaN) in every encoding.
NULL_CODE = 0


def canonical_key(value: object) -> object:
    """NaN group keys behave as NULL; integral floats become ints."""
    if isinstance(value, float):
        if np.isnan(value):
            return None
        if value.is_integer():
            return int(value)
    return value


class Encoding:
    """Per-row codes of one column, in ``[0, cardinality)``.

    ``lookup`` maps a canonical value to its code. Predicates compare
    literals through it, so it exists only where codes decide NULL-ness
    exactly as the predicates do: on object columns without float NaN
    (the predicates count a NaN object as non-NULL, the codes cannot).
    Float columns have none; their predicates are numpy already.
    """

    __slots__ = ("codes", "cardinality", "lookup")

    def __init__(
        self,
        codes: np.ndarray,
        cardinality: int,
        lookup: dict[object, int] | None = None,
    ) -> None:
        self.codes = codes
        self.cardinality = cardinality
        self.lookup = lookup

    def take(self, rows) -> "Encoding":
        """The encoding of the rows at ``rows`` (index array or slice)."""
        return Encoding(self.codes[rows], self.cardinality, self.lookup)


def encode(values: np.ndarray) -> Encoding:
    """Encode a float64 or object value array."""
    if values.dtype == np.float64:
        return _encode_floats(values)
    return _encode_objects(values)


def _encode_floats(values: np.ndarray) -> Encoding:
    """Codes in ascending value order after NULL, through ``np.unique``."""
    present = ~np.isnan(values)
    unique, inverse = np.unique(values[present], return_inverse=True)
    codes = np.zeros(len(values), dtype=np.int64)
    # numpy 2.0.x shapes ``inverse`` like the input; flatten everywhere.
    codes[present] = inverse.reshape(-1) + 1
    return Encoding(codes, len(unique) + 1)


def _encode_objects(values: np.ndarray) -> Encoding:
    """Codes in first-occurrence order, one dict pass."""
    lookup: dict[object, int] = {None: NULL_CODE}
    # canonical_key only rewrites floats; skip the call per row when
    # the column holds none.
    has_floats = any(issubclass(t, float) for t in set(map(type, values)))
    keys = map(canonical_key, values) if has_floats else values
    codes = np.fromiter(
        (lookup.setdefault(key, len(lookup)) for key in keys),
        dtype=np.int64,
        count=len(values),
    )
    cardinality = len(lookup)
    if has_floats and any(
        isinstance(v, float) and np.isnan(v) for v in values
    ):
        return Encoding(codes, cardinality)
    return Encoding(codes, cardinality, lookup)
