"""Shifting operators between spread classes.

A map with source spread t and target spread s sends x_{j_1}...x_{j_l} to
the monomial with indices j_k - (t_1+...+t_{k-1}) + (s_1+...+s_{k-1}).  On
each degree slice it is a bijection from the t-spread monomials onto the
s-spread ones, and with s = t it is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import MonomialIdeal
from .monomials import Monomial, SpreadVector, is_spread, prefix_sums


@dataclass(frozen=True)
class SpreadMap:
    source: SpreadVector
    target: SpreadVector

    def __post_init__(self):
        src = SpreadVector.coerce(self.source)
        tgt = SpreadVector.coerce(self.target)
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)
        if src.d != tgt.d:
            raise ValueError(
                f"source and target spreads must share d: {src.d} != {tgt.d}")

    @classmethod
    def to_zero(cls, t) -> "SpreadMap":
        t = SpreadVector.coerce(t)
        return cls(t, SpreadVector.zero(t.d))

    @classmethod
    def from_zero(cls, t) -> "SpreadMap":
        t = SpreadVector.coerce(t)
        return cls(SpreadVector.zero(t.d), t)

    @property
    def inverse(self) -> "SpreadMap":
        return SpreadMap(self.target, self.source)

    def __str__(self) -> str:
        return f"sigma[{self.source}->{self.target}]"


def _image_indices(map_: SpreadMap, u: Monomial) -> tuple[int, ...]:
    src = prefix_sums(map_.source)
    tgt = prefix_sums(map_.target)
    return tuple(j - src[k] + tgt[k] for k, j in enumerate(u.indices))


def default_target_ambient(map_: SpreadMap, n: int, image_max: int) -> int:
    """n adjusted by the full spread sums, clamped below by the image."""
    shifted = n - sum(map_.source.entries) + sum(map_.target.entries)
    return max(shifted, image_max, 1)


def apply_spread_map(map_: SpreadMap, u: Monomial, ambient_n: int | None = None) -> Monomial:
    """Image of a source-spread monomial; the result is target-spread."""
    if not is_spread(u, map_.source):
        raise ValueError(f"{u} is not {map_.source}-spread")
    image = _image_indices(map_, u)
    image_max = image[-1] if image else 1
    if ambient_n is None:
        ambient_n = default_target_ambient(map_, u.ambient_n, image_max)
    elif image_max > ambient_n:
        raise ValueError(
            f"image index {image_max} exceeds requested ambient {ambient_n}")
    w = Monomial(image, ambient_n)
    assert is_spread(w, map_.target)
    return w


def apply_spread_map_ideal(map_: SpreadMap, ideal: MonomialIdeal,
                           ambient_n: int | None = None) -> MonomialIdeal:
    """Apply the map to every minimal generator.

    The image generator set is minimal again for the spread classes these
    maps are used on; `MonomialIdeal` raises ValueError if it is not.
    """
    if ideal.is_zero:
        n = ambient_n or default_target_ambient(map_, ideal.ambient_n, 1)
        return MonomialIdeal.zero(n)
    images = []
    image_max = 1
    for g in ideal.generators:
        if not is_spread(g, map_.source):
            raise ValueError(f"generator {g} is not {map_.source}-spread")
        idx = _image_indices(map_, g)
        images.append(idx)
        if idx:
            image_max = max(image_max, idx[-1])
    if ambient_n is None:
        ambient_n = default_target_ambient(map_, ideal.ambient_n, image_max)
    elif image_max > ambient_n:
        raise ValueError(
            f"image index {image_max} exceeds requested ambient {ambient_n}")
    return MonomialIdeal([Monomial(idx, ambient_n) for idx in images], ambient_n)
