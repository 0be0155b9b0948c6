"""The ``wire_keyed`` traffic: tenants x a shared metric vocabulary.

Key popularity is Zipf over the (tenant, metric) pairs and fixed (a
constant permutation), so every seed sends the same mix of hot, cold and
engine-pinned keys; the seed picks each frame's keys, chunk sizes and
values.  Values are rounded, so keys carry duplicates as real metrics do.

Tenants churn: every ``window`` stream frames a rotating tenant takes a
new name (``t07.w12`` is tenant 7 in its window 12), the way per-deploy
or per-hour keys retire.  A key therefore absorbs data for one window
only, which keeps the registry's working set stationary — an OPAQ key
summary grows with the number of folds it absorbs, so keys that live
for the whole run would make every later second of it cost more than
the one before.  Tenants rotate at staggered frames, so every frame
retires about the same number of keys.  The two pinned tenants keep
their names (the sketch engines' footprints are bounded) and are how
the ``gk`` and ``kll`` engines are reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRICS = ("latency_ms", "ttfb_ms", "bytes", "queue", "cpu", "rows", "errors", "gc_ms")
_POPULARITY_SEED = 0x0BAC


@dataclass(frozen=True)
class KeyedScale:
    tenants: int = 48
    keys_per_frame: int = 96
    chunk_min: int = 64
    chunk_max: int = 960
    frames: int = 48
    window: int = 48
    zipf: float = 1.0

    def __post_init__(self) -> None:
        if self.frames % self.window:
            raise ValueError("the frame pool must hold whole windows")


TINY = KeyedScale(tenants=8, keys_per_frame=24, frames=8, window=4)


def base_keys(scale: KeyedScale) -> list[tuple[int, str]]:
    """Every (tenant index, metric), most popular first."""
    keys = [(t, m) for t in range(scale.tenants) for m in METRICS]
    order = np.random.default_rng(_POPULARITY_SEED).permutation(len(keys))
    return [keys[i] for i in order]


def pinned(scale: KeyedScale) -> dict[int, str]:
    """Two minority tenants pinned to the sketch engines."""
    return {scale.tenants - 2: "gk", scale.tenants - 1: "kll"}


def _offset(scale: KeyedScale, tenant: int) -> int:
    return tenant * scale.window // scale.tenants


def window_of(scale: KeyedScale, tenant: int, t: int) -> int | None:
    """The window of ``tenant`` at stream frame ``t`` (None: pinned)."""
    if tenant in pinned(scale):
        return None
    return (t + _offset(scale, tenant)) // scale.window


def window_frames(scale: KeyedScale, tenant: int, window: int | None) -> tuple[int, int | None]:
    """Stream frames ``[first, end)`` that feed one name of ``tenant``."""
    if window is None:
        return 0, None
    start = window * scale.window - _offset(scale, tenant)
    return max(0, start), start + scale.window


def tenant_name(tenant: int, window: int | None) -> str:
    return f"t{tenant:02d}" if window is None else f"t{tenant:02d}.w{window}"


def parse_tenant(name: str) -> tuple[int, int | None]:
    tenant, _, window = name[1:].partition(".w")
    return int(tenant), (int(window) if window else None)


def popularity(scale: KeyedScale) -> np.ndarray:
    n = scale.tenants * len(METRICS)
    w = np.arange(1, n + 1, dtype=np.float64) ** (-scale.zipf)
    return w / w.sum()


def make_values(rng: np.random.Generator, metric: str, size: int) -> np.ndarray:
    m = METRICS.index(metric)
    raw = rng.lognormal(mean=1.0 + 0.5 * m, sigma=0.6 + 0.1 * m, size=size)
    return np.round(raw, 2 - (m % 3))


def make_frames(scale: KeyedScale, seed: int) -> list[list[tuple[int, np.ndarray]]]:
    """The pool: per frame, (popularity rank, values) in rank order."""
    rng = np.random.default_rng([seed, 0xF4A3])
    weights = popularity(scale)
    keys = base_keys(scale)
    frames = []
    for _ in range(scale.frames):
        picked = np.sort(rng.choice(len(keys), scale.keys_per_frame, replace=False, p=weights))
        sizes = rng.integers(scale.chunk_min, scale.chunk_max + 1, size=picked.size)
        frames.append([
            (int(k), make_values(rng, keys[k][1], int(size)))
            for k, size in zip(picked, sizes)
        ])
    return frames
