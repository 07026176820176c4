"""Deterministic generators for the running example categories: chain
posets, the two-object involution category, one-object groups, and orbit
categories of finite groups (full, p-subgroup, and reduced variants)."""

from __future__ import annotations

import itertools
import warnings

from .category import FiniteCategory, Morphism
from .errors import EngineError
from .fields import _is_prime
from .groups import FiniteGroup, check_subgroup_order

# chain<n> and C<n> are refused before anything is built when their
# composition table would hold more composable pairs than this: the checks
# of FiniteCategory and FiniteGroup are cubic in the size.
MAX_COMPOSABLE_PAIRS = 2 ** 15

_CHAIN_OBJECTS = ("x", "y", "z", "w", "v", "u")
_CHAIN_STEPS = ("f", "g", "h", "i", "j", "k", "l")


def _chain_object(i: int, n: int) -> str:
    if n <= len(_CHAIN_OBJECTS):
        return _CHAIN_OBJECTS[i - 1]
    return f"x{i}"


def _chain_step(k: int, n: int) -> str:
    if n - 1 <= len(_CHAIN_STEPS):
        return _CHAIN_STEPS[k - 1]
    return f"s{k}."


def _check_pairs(name: str, pairs: int) -> None:
    if pairs > MAX_COMPOSABLE_PAIRS:
        raise EngineError(f"{name} too large: {pairs:,} composable pairs, "
                          f"limit {MAX_COMPOSABLE_PAIRS:,}")


def chain_poset(n: int) -> FiniteCategory:
    """The linear order with n objects, one morphism per ordered pair.

    For n = 3 the names follow the usual picture x -f-> y -g-> z with the
    composite written gf.
    """
    if n < 1:
        raise EngineError("a chain poset needs at least one object")
    _check_pairs(f"chain{n}", n * (n + 1) * (n + 2) // 6)
    objects = [_chain_object(i, n) for i in range(1, n + 1)]
    names = {}
    morphisms = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i == j:
                name = "1" + objects[i - 1]
            else:
                name = "".join(_chain_step(k, n) for k in range(j - 1, i - 1, -1))
            names[(i, j)] = name
            morphisms.append(Morphism(name, objects[i - 1], objects[j - 1]))
    identity = {objects[i - 1]: names[(i, i)] for i in range(1, n + 1)}
    compose = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                compose[(names[(j, k)], names[(i, j)])] = names[(i, k)]
    return FiniteCategory(objects, morphisms, identity, compose, name=f"chain{n}")


def involution_category() -> FiniteCategory:
    """Two objects x, y; an involution h on x and parallel arrows f, g
    with h*h = 1x and "h then f" = g."""
    objects = ["x", "y"]
    morphisms = [Morphism("1x", "x", "x"), Morphism("h", "x", "x"),
                 Morphism("1y", "y", "y"), Morphism("f", "x", "y"),
                 Morphism("g", "x", "y")]
    identity = {"x": "1x", "y": "1y"}
    compose = {
        ("1x", "1x"): "1x", ("1x", "h"): "h", ("h", "1x"): "h", ("h", "h"): "1x",
        ("f", "1x"): "f", ("f", "h"): "g", ("g", "1x"): "g", ("g", "h"): "f",
        ("1y", "f"): "f", ("1y", "g"): "g", ("1y", "1y"): "1y",
    }
    return FiniteCategory(objects, morphisms, identity, compose, name="involution")


def idempotent_pair_category() -> FiniteCategory:
    """One object with a single non-identity idempotent; not Karoubian."""
    objects = ["x"]
    morphisms = [Morphism("1x", "x", "x"), Morphism("e", "x", "x")]
    identity = {"x": "1x"}
    compose = {("1x", "1x"): "1x", ("1x", "e"): "e", ("e", "1x"): "e", ("e", "e"): "e"}
    return FiniteCategory(objects, morphisms, identity, compose, name="idem")


def split_idempotent_category() -> FiniteCategory:
    """The idempotent completion of the previous category: e = s∘r splits
    through a second object."""
    objects = ["x", "y"]
    morphisms = [Morphism("1x", "x", "x"), Morphism("e", "x", "x"),
                 Morphism("r", "x", "y"), Morphism("s", "y", "x"),
                 Morphism("1y", "y", "y")]
    identity = {"x": "1x", "y": "1y"}
    compose = {
        ("1x", "1x"): "1x", ("e", "1x"): "e", ("r", "1x"): "r",
        ("1x", "e"): "e", ("e", "e"): "e", ("r", "e"): "r",
        ("1x", "s"): "s", ("e", "s"): "s", ("r", "s"): "1y",
        ("s", "r"): "e", ("1y", "r"): "r",
        ("s", "1y"): "s", ("1y", "1y"): "1y",
    }
    return FiniteCategory(objects, morphisms, identity, compose, name="idem-split")


def group_category(group: FiniteGroup) -> FiniteCategory:
    """A group as a one-object category; compose(g, f) is the product gf.
    The group has checked its table for the category axioms: totality,
    associativity and the identity."""
    obj = "*"
    morphisms = [Morphism(e, obj, obj) for e in group.elements]
    identity = {obj: group.identity}
    compose = {(g, f): group.mult(g, f) for g in group.elements for f in group.elements}
    return FiniteCategory._trusted([obj], morphisms, identity, compose, name=f"B{group.name}")


class OrbitCategory(FiniteCategory):
    """Orbit category of a finite group over a chosen family of subgroups.

    Objects are the quotients G/H; a morphism G/H -> G/K is the coset gK
    of an element with g^-1 H g contained in K, acting by xH -> xgK.
    Extra lookup tables record which subgroup and coset each object and
    morphism came from.
    """

    group: FiniteGroup
    object_subgroup: dict
    morphism_coset: dict


def orbit_category(group: FiniteGroup, subgroup_filter=None) -> OrbitCategory:
    if subgroup_filter is None:
        subgroup_filter = lambda h: True
    chosen = [h for h in group.subgroups() if subgroup_filter(h)]
    if not chosen:
        raise EngineError("the subgroup family is empty")
    family = set(chosen)
    closed = all(group.conjugate(h, g) in family for h in chosen for g in group.elements)
    if not closed:
        warnings.warn("subgroup family is not closed under conjugation; "
                      "the orbit category is still valid but is not a strictly "
                      "full subcategory of the full orbit category", stacklevel=2)

    objects = []
    object_subgroup = {}
    for h in chosen:
        name = f"{group.name}/{group.subset_label(h)}"
        objects.append(name)
        object_subgroup[name] = h

    morphisms = []
    morphism_coset = {}
    hom_by_coset = {}
    identity = {}
    for i, src in enumerate(objects):
        h = object_subgroup[src]
        for j, dst in enumerate(objects):
            k = object_subgroup[dst]
            transporter = [g for g in group.elements if group.conjugate(h, g) <= k]
            cosets = sorted({group.coset(g, k) for g in transporter}, key=group.subset_key)
            for coset in cosets:
                rep = "+".join(sorted(coset, key=lambda a: group.index[a]))
                name = f"c{i}.{j}[{rep}]"
                morphisms.append(Morphism(name, src, dst))
                morphism_coset[name] = coset
                hom_by_coset[(src, dst, coset)] = name
                if src == dst and coset == h:
                    identity[src] = name

    by_name = {m.name: m for m in morphisms}
    compose = {}
    for g_name, g_coset in morphism_coset.items():
        for f_name, f_coset in morphism_coset.items():
            g_mor = by_name[g_name]
            f_mor = by_name[f_name]
            if g_mor.dom != f_mor.cod:
                continue
            target_sub = object_subgroup[g_mor.cod]
            f_rep = min(f_coset, key=lambda a: group.index[a])
            g_rep = min(g_coset, key=lambda a: group.index[a])
            coset = group.coset(group.mult(f_rep, g_rep), target_sub)
            compose[(g_name, f_name)] = hom_by_coset[(f_mor.dom, g_mor.cod, coset)]

    cat = OrbitCategory(objects, morphisms, identity, compose,
                        name=f"O({group.name})")
    cat.group = group
    cat.object_subgroup = object_subgroup
    cat.morphism_coset = morphism_coset
    return cat


def _require_prime(p: int) -> None:
    """Refuse p unless it is a prime below 2^64, the limit of PrimeField;
    the Miller-Rabin test of _is_prime is exact far beyond it."""
    if p >= 2 ** 64:
        raise EngineError(f"p-orbit categories need p below the limit 2^64, and {p} is not")
    if not _is_prime(p):
        raise EngineError(f"p-orbit categories need a prime p, and {p} is not prime")


def p_orbit_category(group: FiniteGroup, p: int) -> OrbitCategory:
    """Orbit category on all p-subgroups (the trivial subgroup included)."""
    _require_prime(p)
    cat = orbit_category(group, lambda h: group.is_p_group(h, p))
    cat.name = f"O_{p}({group.name})"
    return cat


def reduced_p_orbit_category(group: FiniteGroup, p: int) -> OrbitCategory:
    """Orbit category on the non-identity p-subgroups."""
    _require_prime(p)
    cat = orbit_category(group, lambda h: len(h) > 1 and group.is_p_group(h, p))
    cat.name = f"O_{p}*({group.name})"
    return cat


# -- concrete groups ---------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise EngineError("cyclic group order must be positive")
    _check_pairs(f"C{n}", n * n)
    names = ["e"] + [("r" if i == 1 else f"r{i}") for i in range(1, n)]
    table = {}
    for i in range(n):
        for j in range(n):
            table[(names[i], names[j])] = names[(i + j) % n]
    return FiniteGroup(names, table, name=f"C{n}")


def _cycle_name(perm: tuple) -> str:
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        parts.append("(" + "".join(str(i + 1) for i in cycle) + ")")
    return "".join(parts) if parts else "e"


def symmetric_group(n: int) -> FiniteGroup:
    """S_n for n <= 4; the product a*b applies a first, then b."""
    if not 1 <= n <= 4:
        raise EngineError("symmetric groups are generated only for 1 <= n <= 4")
    perms = sorted(itertools.permutations(range(n)))
    names = {p: _cycle_name(p) for p in perms}
    table = {}
    for a in perms:
        for b in perms:
            ab = tuple(b[a[i]] for i in range(n))
            table[(names[a], names[b])] = names[ab]
    return FiniteGroup([names[p] for p in perms], table, name=f"S{n}")


def group_by_name(name: str) -> FiniteGroup:
    text = name.strip()
    if text.lower() == "trivial":
        return cyclic_group(1)
    if text.upper().startswith("C") and text[1:].isdecimal():
        return cyclic_group(int(text[1:]))
    if text.upper().startswith("S") and text[1:].isdecimal():
        return symmetric_group(int(text[1:]))
    raise EngineError(f"unknown group name {name!r} (use trivial, C<n>, or S<n>)")


def _as_group(group: str | FiniteGroup) -> FiniteGroup:
    return group if isinstance(group, FiniteGroup) else group_by_name(group)


def _subgroups_group(group: str | FiniteGroup) -> FiniteGroup:
    """_as_group for the orbit categories, which enumerate the subgroups:
    a C<n> too large for that is refused before it is built."""
    if isinstance(group, str):
        text = group.strip()
        if text.upper().startswith("C") and text[1:].isdecimal():
            n = int(text[1:])
            _check_pairs(f"C{n}", n * n)
            check_subgroup_order(f"C{n}", n)
    return _as_group(group)


def category_by_name(name: str, *, group: str | FiniteGroup | None = None,
                     p: int | None = None) -> FiniteCategory:
    """Resolve a gallery token like "chain3", "involution", or "orbit-p";
    group is a group name or a FiniteGroup."""
    text = name.strip().lower()
    if text.startswith("chain") and text[5:].isdecimal():
        return chain_poset(int(text[5:]))
    if text == "involution":
        return involution_category()
    if text == "idem":
        return idempotent_pair_category()
    if text == "idem-split":
        return split_idempotent_category()
    if text == "group":
        if group is None:
            raise EngineError("gallery 'group' needs a group name")
        return group_category(_as_group(group))
    if text == "orbit":
        if group is None:
            raise EngineError("gallery 'orbit' needs a group name")
        if p is not None:
            return p_orbit_category(_subgroups_group(group), p)
        return orbit_category(_subgroups_group(group))
    if text == "orbit-p":
        if group is None or p is None:
            raise EngineError("gallery 'orbit-p' needs a group name and a prime")
        return reduced_p_orbit_category(_subgroups_group(group), p)
    raise EngineError(f"unknown gallery name {name!r}")


GALLERY_NAMES = ("chain<n>", "involution", "idem", "idem-split",
                 "group", "orbit", "orbit-p")
