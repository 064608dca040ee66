"""`OperatingPointBatch`: the array-of-structs mirror of `OperatingPoint`.

Dense sweeps — temperature grids, robustness sweeps, V_th device-card
exploration — evaluate thousands of *fresh* ``(T, V_dd, V_th)`` points
per experiment, which the scalar, per-``op.key`` memoized entry points
serve one Python call at a time. This module introduces the batch
currency those sweeps hand to the vectorized kernels: an
:class:`OperatingPointBatch` holds the three electrical columns as
NumPy ``float64`` arrays (``NaN`` encodes the scalar layer's ``None``,
i.e. "the nominal voltages of whichever device card evaluates this
point") and every batch entry point in the tech/circuits stack —
``CryoMOSFET.gate_delay_factor_batch``,
``MetalLayer.resistance_per_um_batch``,
``RepeaterOptimizer.optimize_batch``,
``CircuitSimulator.simulate_batch`` — takes one.

Conventions (see the "scalar vs batch surface" section of
``docs/ARCHITECTURE.md``):

* a batch sibling of a scalar entry point carries the ``_batch`` suffix
  and returns a NumPy array (or a plural result dataclass whose columns
  are arrays);
* scalar entry points are thin wrappers over the length-1 batch path,
  so there is exactly one implementation of each formula and
  ``batch_kernel(batch)[i] == scalar_kernel(batch[i])`` bit-for-bit;
* the columns of a batch are frozen (``writeable=False``): a batch is
  an immutable value, like :class:`OperatingPoint`;
* batch kernels compute on every call; only the scalar entry points
  memoize, and ``batch[i]`` yields an ordinary :class:`OperatingPoint`
  whose ``.key`` is that memoization identity.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tech.operating_point import OP_ROOM, OperatingPoint


def _nan_to_none(value: float) -> Optional[float]:
    value = float(value)
    return None if value != value else value


class OperatingPointBatch:
    """A batch of operating points stored column-wise as NumPy arrays.

    Attributes
    ----------
    temperature_k / vdd_v / vth_v:
        ``float64`` arrays of one value per point; ``NaN`` in a voltage
        column means "card nominal" (the scalar layer's ``None``). The
        arrays are frozen — treat a batch as immutable, like the scalar
        :class:`OperatingPoint`.
    """

    __slots__ = ("temperature_k", "vdd_v", "vth_v")

    def __init__(
        self,
        temperature_k,
        vdd_v=None,
        vth_v=None,
    ) -> None:
        t = np.atleast_1d(np.array(temperature_k, dtype=float))
        if t.ndim != 1:
            raise ValueError("temperature column must be one-dimensional")
        n = t.shape[0]
        vdd = self._column(vdd_v, n, "vdd_v")
        vth = self._column(vth_v, n, "vth_v")
        # Scalar parity: OperatingPoint.__post_init__ rejects vdd <= vth
        # whenever both voltages are explicit.
        both = ~np.isnan(vdd) & ~np.isnan(vth)
        bad = both & (vdd <= vth)
        if bool(bad.any()):
            i = int(np.argmax(bad))
            raise ValueError(
                f"point {i}: Vdd must exceed Vth "
                f"(Vdd={vdd[i]:g} V, Vth={vth[i]:g} V)"
            )
        for column in (t, vdd, vth):
            column.flags.writeable = False
        self.temperature_k, self.vdd_v, self.vth_v = t, vdd, vth

    @staticmethod
    def _column(value, n: int, name: str) -> np.ndarray:
        if value is None:
            return np.full(n, np.nan)
        if isinstance(value, (list, tuple)):
            value = [np.nan if v is None else float(v) for v in value]
        column = np.atleast_1d(np.array(value, dtype=float))
        if column.ndim != 1:
            raise ValueError(f"{name} column must be one-dimensional")
        if column.shape[0] == 1 and n != 1:
            column = np.full(n, column[0])
        if column.shape[0] != n:
            raise ValueError(
                f"{name}: expected {n} values to match the temperature "
                f"column, got {column.shape[0]}"
            )
        return column

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[OperatingPoint]) -> "OperatingPointBatch":
        """A batch from a sequence of scalar operating points.

        Point ``name``s are not carried (a batch is electrical identity
        only, exactly like :attr:`OperatingPoint.key`).
        """
        pts = list(points)
        return cls(
            [p.temperature_k for p in pts],
            [p.vdd_v for p in pts],
            [p.vth_v for p in pts],
        )

    @classmethod
    def from_grid(
        cls,
        temperature_k,
        vdd_v=None,
        vth_v=None,
    ) -> "OperatingPointBatch":
        """A batch from *aligned* columns (scalars broadcast to length).

        ``from_grid([77, 135, 300], vdd_v=0.64, vth_v=0.25)`` is three
        points sharing one voltage scheme — the fig27-style temperature
        sweep. Columns of equal length pair up element-wise.
        """
        return cls(temperature_k, vdd_v, vth_v)

    @classmethod
    def product(
        cls,
        temperatures,
        vdds: Sequence[Optional[float]] = (None,),
        vths: Sequence[Optional[float]] = (None,),
    ) -> "OperatingPointBatch":
        """The Cartesian product grid, temperature-major.

        Element order is ``for t: for vdd: for vth`` — the natural
        nesting of a dense sweep, so ``product(T, V, H)[i]`` maps to
        ``(T[i // (len(V)*len(H))], ...)``.
        """
        t = np.array([float(x) for x in temperatures], dtype=float)
        vd = np.array(
            [np.nan if x is None else float(x) for x in vdds], dtype=float
        )
        vh = np.array(
            [np.nan if x is None else float(x) for x in vths], dtype=float
        )
        n_t, n_d, n_h = t.shape[0], vd.shape[0], vh.shape[0]
        return cls(
            np.repeat(t, n_d * n_h),
            np.tile(np.repeat(vd, n_h), n_t),
            np.tile(vh, n_t * n_d),
        )

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.temperature_k.shape[0])

    def __getitem__(
        self, index
    ) -> Union[OperatingPoint, "OperatingPointBatch"]:
        """``batch[i]`` is an :class:`OperatingPoint`; slices are batches."""
        if isinstance(index, (int, np.integer)):
            return OperatingPoint.at(
                float(self.temperature_k[index]),
                _nan_to_none(self.vdd_v[index]),
                _nan_to_none(self.vth_v[index]),
            )
        return OperatingPointBatch(
            self.temperature_k[index], self.vdd_v[index], self.vth_v[index]
        )

    def __iter__(self) -> Iterator[OperatingPoint]:
        return (self[i] for i in range(len(self)))

    def __repr__(self) -> str:
        return f"OperatingPointBatch(n={len(self)})"

    def to_points(self) -> List[OperatingPoint]:
        """The scalar points of this batch (auto-named, names not kept)."""
        return list(self)

    def to_columns(self) -> dict:
        """Plain-data columns (``None`` for card-nominal voltages).

        The JSON-serializable rendering the serve layer puts in grid
        responses; round-trips through ``from_grid`` exactly.
        """
        return {
            "temperature_k": [float(t) for t in self.temperature_k],
            "vdd_v": [_nan_to_none(v) for v in self.vdd_v],
            "vth_v": [_nan_to_none(v) for v in self.vth_v],
        }

    @property
    def is_cryogenic(self) -> np.ndarray:
        """Boolean mask mirroring :attr:`OperatingPoint.is_cryogenic`."""
        return self.temperature_k < 200.0

    # ------------------------------------------------------------------
    # shaping
    # ------------------------------------------------------------------
    def broadcast_to(self, n: int) -> "OperatingPointBatch":
        """This batch repeated to length ``n`` (only from length 1)."""
        if len(self) == n:
            return self
        if len(self) != 1:
            raise ValueError(
                f"cannot broadcast a length-{len(self)} batch to {n} points"
            )
        return OperatingPointBatch(
            np.full(n, self.temperature_k[0]),
            np.full(n, self.vdd_v[0]),
            np.full(n, self.vth_v[0]),
        )


#: What batch entry points accept: a batch, a single point (treated as a
#: length-1 batch), a sequence of points, or ``None`` (300 K nominal).
OperatingPointBatchLike = Union[
    OperatingPointBatch, OperatingPoint, Sequence[OperatingPoint], None
]


def as_operating_point_batch(
    op: OperatingPointBatchLike = None,
) -> OperatingPointBatch:
    """Coerce any batch-like value into an :class:`OperatingPointBatch`.

    Bare numbers are rejected: points are constructed explicitly, as on
    the scalar entry points.
    """
    if isinstance(op, OperatingPointBatch):
        return op
    if op is None:
        return OperatingPointBatch.from_points([OP_ROOM])
    if isinstance(op, OperatingPoint):
        return OperatingPointBatch.from_points([op])
    if isinstance(op, (list, tuple)):
        if all(isinstance(p, OperatingPoint) for p in op):
            return OperatingPointBatch.from_points(op)
    raise TypeError(
        f"cannot interpret {op!r} as an operating-point batch; pass an "
        "OperatingPointBatch, an OperatingPoint, or a sequence of "
        "OperatingPoints"
    )


def broadcast_lengths(
    lengths_um, batch: OperatingPointBatch
) -> Tuple[np.ndarray, OperatingPointBatch]:
    """Pair a length grid with an operating-point batch, broadcasting.

    Either side may be length 1 (or a scalar length); otherwise the two
    must already agree. Returns ``(lengths, batch)`` of equal length.
    """
    lengths = np.atleast_1d(np.array(lengths_um, dtype=float))
    if lengths.ndim != 1:
        raise ValueError("length grid must be one-dimensional")
    n_l, n_b = lengths.shape[0], len(batch)
    if n_l == n_b:
        return lengths, batch
    if n_b == 1:
        return lengths, batch.broadcast_to(n_l)
    if n_l == 1:
        return np.full(n_b, lengths[0]), batch
    raise ValueError(
        f"length grid ({n_l}) and operating-point batch ({n_b}) do not "
        "broadcast; sizes must match or one side must be length 1"
    )
