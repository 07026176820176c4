"""Sieves on a finite category: precomposition-closed sets of morphisms
with a common codomain."""

from __future__ import annotations

from typing import Iterable, NamedTuple
from weakref import WeakKeyDictionary

from .category import FiniteCategory
from .errors import EngineError


class Sieve(NamedTuple):
    target: str
    members: frozenset  # morphism names, all with cod == target


def maximal_sieve(cat: FiniteCategory, x: str) -> Sieve:
    return Sieve(x, frozenset(cat.into(x)))


def is_sieve(cat: FiniteCategory, target: str, members: Iterable[str]) -> bool:
    members = frozenset(members)
    for u in members:
        if cat.cod(u) != target:
            return False
        for v in cat.into(cat.dom(u)):
            if cat.compose(u, v) not in members:
                return False
    return True


def sieve_sort_key(cat: FiniteCategory, s: Sieve):
    return (len(s.members), tuple(sorted(cat.mor_index[m] for m in s.members)))


_SIEVES: WeakKeyDictionary = WeakKeyDictionary()  # category -> {object: sieves}


def sieves_on(cat: FiniteCategory, x: str) -> tuple[Sieve, ...]:
    """All sieves on x, in (size, member-index) order.

    Every sieve is the union of the principal sieves of its members, so
    the sieves are the closure of {empty} under union with principal
    sieves. The result is cached per category; a guard refuses objects
    with more than 20 morphisms into them.
    """
    if x not in cat.obj_index:
        raise EngineError(f"unknown object {x!r}")
    cached = _SIEVES.setdefault(cat, {})
    if x in cached:
        return cached[x]
    into = cat.into(x)
    if len(into) > 20:
        raise EngineError(f"sieve enumeration refused at {x!r}: {len(into)} morphisms "
                          "into it, above the limit 20")
    bit = {u: 1 << i for i, u in enumerate(into)}
    masks = {0}
    for u in into:
        principal = 0
        for v in cat.into(cat.dom(u)):
            principal |= bit[cat.compose(u, v)]
        masks |= {m | principal for m in masks}
    # Bit i stands for into[i], and into is in morphism-index order.
    keyed = sorted((bin(m).count("1"), [i for i in range(len(into)) if m >> i & 1])
                   for m in masks)
    cached[x] = tuple(Sieve(x, frozenset(into[i] for i in members))
                      for _size, members in keyed)
    return cached[x]


def pullback_sieve(cat: FiniteCategory, s: Sieve, f: str) -> Sieve:
    """f*(S) = {g : "g then f" lies in S}, a sieve on dom(f)."""
    if cat.cod(f) != s.target:
        raise EngineError(f"cannot pull back a sieve on {s.target!r} along {f!r} "
                          f"with cod {cat.cod(f)!r}")
    y = cat.dom(f)
    members = frozenset(g for g in cat.into(y) if cat.compose(f, g) in s.members)
    return Sieve(y, members)
