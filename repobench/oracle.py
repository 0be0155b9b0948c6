"""Exact oracle: grades every served quantile answer against the data sent.

The benchmark's streams repeat a pool of ``F`` pre-generated frames
(frame ``t`` of the stream is pool frame ``t % F``), so the exact
multiset behind any answer is known from two numbers: the answer's
*group* (one key, one metric rollup, the global rollup or the whole
unkeyed stream) and the range of stream frames it covers.  Ranks
are counted with ``searchsorted`` on each pool frame's sorted piece and
scaled by the number of whole cycles, so grading needs neither the
stream itself nor a sort per answer.

The rules follow the program's guarantee convention (``rank(v)`` is the
number of elements ``<= v``; a bound's observed error is its true rank
distance from the target rank ``psi = clamp(ceil(phi*n), 1, n)``, and
must stay *below* the served guarantee ``g``):

* ``count`` equals the number of elements sent to the group;
* ``psi`` is the target rank of the requested ``phi`` for that count;
* ``lower <= x_psi <= upper`` for the exact ``psi``-th smallest
  element ``x_psi`` (enclosure) — for the deterministic engines;
* observed rank error ``< g``.

``kll`` states its guarantee per query with failure probability
``delta = 0.01`` (``docs/guarantees.md``), so a ``kll`` answer outside
``g`` is tallied, not failed; the run fails only when such misses exceed
what that probability allows (:func:`kll_miss_limit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Engines whose served bounds are certainties.
DETERMINISTIC = ("opaq", "gk")
#: Per-query failure probability the ``kll`` engine states.
KLL_DELTA = 0.01


def kll_miss_limit(answers: int) -> int:
    """Most ``kll`` misses consistent with ``delta`` per query.

    The mean plus six binomial standard deviations, plus one: a sound
    sketch trips it with negligible probability, while a systematically
    broken one (misses on a sizeable share of answers) cannot pass.
    """
    mean = KLL_DELTA * answers
    return int(math.floor(mean + 6.0 * math.sqrt(mean * (1 - KLL_DELTA)) + 1))


@dataclass
class Answer:
    """One served answer, reduced to what the oracle grades."""

    group: str
    frames: int
    phis: np.ndarray
    psi: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    count: int
    guarantee: int
    engine: str = "opaq"
    label: str = ""
    #: The group's data is stream frames ``[first, frames)``.
    first: int = 0


@dataclass
class Grade:
    """Violations over every answer; per-answer observed rank error and
    served guarantee, both divided by the answer's count, in input order."""

    answers: int = 0
    errors: np.ndarray = field(default_factory=lambda: np.zeros(0))
    guarantees: np.ndarray = field(default_factory=lambda: np.zeros(0))
    kll_answers: int = 0
    kll_misses: int = 0
    violations: list[str] = field(default_factory=list)


class CycledOracle:
    """Exact rank counts over a stream that cycles ``num_frames`` frames."""

    def __init__(self, num_frames: int) -> None:
        if num_frames < 1:
            raise ValueError("num_frames must be positive")
        self.num_frames = num_frames
        self._raw: dict[str, dict[int, list[np.ndarray]]] = {}
        self._pieces: dict[str, dict[int, np.ndarray]] | None = None
        self._sizes: dict[str, np.ndarray] = {}

    def add(self, group: str, frame: int, values: np.ndarray) -> None:
        """Record that pool frame ``frame`` sends ``values`` to ``group``."""
        if self._pieces is not None:
            raise RuntimeError("oracle already frozen")
        self._raw.setdefault(group, {}).setdefault(frame, []).append(
            np.asarray(values, dtype=np.float64)
        )

    def freeze(self) -> None:
        """Sort every group's pieces; later :meth:`add` calls fail."""
        if self._pieces is not None:
            return
        pieces: dict[str, dict[int, np.ndarray]] = {}
        for group, frames in self._raw.items():
            pieces[group] = {
                f: np.sort(np.concatenate(parts)) for f, parts in frames.items()
            }
        self._pieces = pieces
        self._raw = {}

    def _frozen(self) -> dict[str, dict[int, np.ndarray]]:
        if self._pieces is None:
            self.freeze()
        assert self._pieces is not None
        return self._pieces

    def size(self, group: str, frames: int | np.ndarray) -> int | np.ndarray:
        """Elements the first ``frames`` stream frames send to ``group``."""
        cum = self._sizes.get(group)
        if cum is None:
            sizes = np.zeros(self.num_frames + 1, dtype=np.int64)
            for f, piece in self._frozen().get(group, {}).items():
                sizes[f + 1] = piece.size
            cum = self._sizes[group] = np.cumsum(sizes)
        whole, rem = np.divmod(frames, self.num_frames)
        return whole * cum[-1] + cum[rem]

    def counts(
        self, group: str, values: np.ndarray, frames: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(#elements <= v, #elements < v)`` for each ``values[i]`` over
        the first ``frames[i]`` stream frames of ``group``.

        One sweep over the pool frames keeps a running count per value
        and reads it off for the values whose prefix ends at that frame,
        so memory stays linear in the number of values.
        """
        pieces = self._frozen().get(group, {})
        values = np.asarray(values, dtype=np.float64)
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        frames = np.broadcast_to(np.asarray(frames, dtype=np.int64), values.shape)
        whole, rem = np.divmod(frames[order], self.num_frames)
        by_rem = np.argsort(rem, kind="stable")
        edges = np.searchsorted(rem[by_rem], np.arange(self.num_frames + 1))
        run_le = np.zeros(values.size, dtype=np.int64)
        run_lt = np.zeros(values.size, dtype=np.int64)
        part_le = np.zeros_like(run_le)
        part_lt = np.zeros_like(run_lt)
        for f in range(self.num_frames):
            ending = by_rem[edges[f] : edges[f + 1]]
            part_le[ending] = run_le[ending]
            part_lt[ending] = run_lt[ending]
            piece = pieces.get(f)
            if piece is not None:
                le, lt = _piece_counts(piece, ordered)
                run_le += le
                run_lt += lt
        le = np.empty_like(run_le)
        lt = np.empty_like(run_lt)
        le[order] = whole * run_le + part_le
        lt[order] = whole * run_lt + part_lt
        return le, lt

    def _range_counts(
        self, group: str, values: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        le_end, lt_end = self.counts(group, values, ends)
        if not starts.any():
            return le_end, lt_end
        le_start, lt_start = self.counts(group, values, starts)
        return le_end - le_start, lt_end - lt_start

    def grade(self, answers: list[Answer]) -> Grade:
        """Grade every answer; violations are collected, not raised."""
        result = Grade(
            errors=np.zeros(len(answers)), guarantees=np.zeros(len(answers))
        )
        by_group: dict[str, list[tuple[int, Answer]]] = {}
        for index, a in enumerate(answers):
            by_group.setdefault(a.group, []).append((index, a))
        for group, items in by_group.items():
            lowers = np.concatenate([a.lower for _, a in items])
            uppers = np.concatenate([a.upper for _, a in items])
            widths = [a.lower.size for _, a in items]
            ends = np.repeat([a.frames for _, a in items], widths)
            starts = np.repeat([a.first for _, a in items], widths)
            le, lt = self._range_counts(
                group, np.concatenate([lowers, uppers]),
                np.concatenate([starts, starts]), np.concatenate([ends, ends]),
            )
            half = lowers.size
            sizes = (self.size(group, np.array([a.frames for _, a in items]))
                     - self.size(group, np.array([a.first for _, a in items])))
            pos = 0
            for (index, a), k, n in zip(items, widths, sizes):
                lo, hi = slice(pos, pos + k), slice(half + pos, half + pos + k)
                pos += k
                _grade_one(index, a, int(n), le[lo], lt[lo], le[hi], lt[hi], result)
        if result.kll_misses > kll_miss_limit(result.kll_answers):
            result.violations.append(
                f"kll: {result.kll_misses} of {result.kll_answers} answers "
                f"outside their guarantee (limit "
                f"{kll_miss_limit(result.kll_answers)} at delta={KLL_DELTA})"
            )
        return result


def _piece_counts(piece: np.ndarray, ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(#piece <= v, #piece < v)`` for every ``v`` of sorted ``ordered``,
    in O(len(piece) log len(ordered) + len(ordered)) when values outnumber
    the piece."""
    if piece.size >= ordered.size:
        return (np.searchsorted(piece, ordered, side="right"),
                np.searchsorted(piece, ordered, side="left"))
    # x <= ordered[i] exactly when i >= searchsorted(ordered, x, "left").
    n = ordered.size
    le = np.cumsum(np.bincount(np.searchsorted(ordered, piece, side="left"), minlength=n + 1))
    lt = np.cumsum(np.bincount(np.searchsorted(ordered, piece, side="right"), minlength=n + 1))
    return le[:n], lt[:n]


def _grade_one(
    index: int,
    a: Answer,
    n: int,
    le_lo: np.ndarray,
    lt_lo: np.ndarray,
    le_hi: np.ndarray,
    lt_hi: np.ndarray,
    result: Grade,
) -> None:
    result.answers += 1
    where = f"{a.label or a.group} @frame {a.frames}"
    if a.count != n:
        result.violations.append(f"{where}: count {a.count} != {n} sent")
        return
    psi = np.minimum(n, np.maximum(1, np.ceil(a.phis * n).astype(np.int64)))
    if not np.array_equal(psi, np.asarray(a.psi, dtype=np.int64)):
        result.violations.append(f"{where}: served ranks {a.psi} != {psi}")
        return
    # x_psi >= lower  <=>  fewer than psi elements lie below lower;
    # x_psi <= upper  <=>  at least psi elements are <= upper.
    enclosed = bool(np.all(lt_lo < psi) and np.all(le_hi >= psi))
    below = np.maximum(psi - le_lo, 0)
    above = np.maximum(lt_hi + 1 - psi, 0)
    observed = int(max(below.max(), above.max()))
    within = observed < a.guarantee
    if a.engine == "kll":
        result.kll_answers += 1
        if not (enclosed and within):
            result.kll_misses += 1
    elif a.engine in DETERMINISTIC:
        if not enclosed:
            result.violations.append(f"{where}: bounds do not enclose x_psi")
        if not within:
            result.violations.append(
                f"{where}: observed rank error {observed} >= guarantee "
                f"{a.guarantee}"
            )
    else:
        result.violations.append(f"{where}: unexpected engine {a.engine!r}")
    result.errors[index] = observed / n
    result.guarantees[index] = a.guarantee / n
