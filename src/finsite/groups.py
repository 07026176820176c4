"""Finite groups as explicit Cayley tables, with the subgroup machinery
needed to build orbit categories (closure, conjugation, cosets)."""

from __future__ import annotations

from typing import Iterable

from .category import law_failures
from .errors import EngineError

# Subgroups, and with them orbit categories, are enumerated for groups of
# at most this order.
MAX_SUBGROUP_ORDER = 24


class InvalidGroupError(EngineError):
    def __init__(self, problems):
        self.problems = list(problems)
        lines = "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(f"invalid group:\n{lines}")


def _generators(elements, table) -> list[str]:
    """Elements whose products, bracketed from the left, are every
    element: each element in order is kept unless the right
    multiplication closure of those kept already holds it. No law of the
    table is assumed, only that it is total on the elements."""
    gens, reached = [], set()
    for a in elements:
        if a in reached:
            continue
        gens.append(a)
        todo = [a] + [table[x, a] for x in reached]
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                todo += [table[x, g] for g in gens]
    return gens


class FiniteGroup:
    """A finite group given by element names and a total multiplication table."""

    def __init__(self, elements: Iterable[str], table: dict, *, name: str = "G"):
        self.name = name
        self.elements = tuple(elements)
        self.table = dict(table)  # (a, b) -> ab
        problems = self._check()
        if problems:
            raise InvalidGroupError(problems)
        self.index = {e: i for i, e in enumerate(self.elements)}

    @classmethod
    def from_rows(cls, elements, rows, *, name="G"):
        """Build from a row-major table: rows[i][j] = elements[i] * elements[j]."""
        elements = list(elements)
        if len(rows) != len(elements) or any(len(r) != len(elements) for r in rows):
            raise InvalidGroupError(["table shape does not match the element list"])
        table = {(elements[i], elements[j]): rows[i][j]
                 for i in range(len(elements)) for j in range(len(elements))}
        return cls(elements, table, name=name)

    def _check(self) -> list[str]:
        """Every violation of the group axioms; on a group, the identity
        and the inverses found are kept as self.identity and self._inv.
        Associativity is checked by Light's test (see law_failures) on the
        elements _generators finds, and on a failure on every triple."""
        problems = []
        if len(set(self.elements)) != len(self.elements):
            problems.append("duplicate element names")
        elems = set(self.elements)
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.table:
                    problems.append(f"missing product ({a!r},{b!r})")
                elif self.table[(a, b)] not in elems:
                    problems.append(f"product ({a!r},{b!r}) leaves the element set")
        if problems:
            return problems
        t = self.table

        def triples(middle):
            for a in self.elements:
                for b in self.elements if middle is None else middle:
                    ab = t[a, b]
                    for c in self.elements:
                        if t[ab, c] != t[a, t[b, c]]:
                            yield f"associativity failure ({a!r},{b!r},{c!r})"

        problems += law_failures(triples, _generators(self.elements, t))
        idents = [e for e in self.elements
                  if all(self.table[(e, b)] == b == self.table[(b, e)] for b in self.elements)]
        if len(idents) != 1:
            problems.append("no two-sided identity element")
            return problems
        e = self.identity = idents[0]
        self._inv = {}
        for a in self.elements:
            b = next((b for b in self.elements
                      if self.table[(a, b)] == e and self.table[(b, a)] == e), None)
            if b is None:
                problems.append(f"no inverse for {a!r}")
            self._inv[a] = b
        return problems

    def mult(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def inv(self, a: str) -> str:
        return self._inv[a]

    def order(self) -> int:
        return len(self.elements)

    def element_order(self, a: str) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.mult(x, a)
            n += 1
        return n

    # -- subgroups -------------------------------------------------------

    def subgroup_closure(self, seed: Iterable[str]) -> frozenset:
        out = {self.identity, *seed}
        frontier = list(out)
        while frontier:
            nxt = []
            for a in frontier:
                for b in tuple(out):
                    for c in (self.mult(a, b), self.mult(b, a)):
                        if c not in out:
                            out.add(c)
                            nxt.append(c)
            frontier = nxt
        return frozenset(out)

    def subgroups(self) -> tuple[frozenset, ...]:
        """All subgroups, by iterated one-generator extensions of known ones.

        Every subgroup arises by adding generators one at a time starting
        from the trivial group, so this enumeration is complete. Intended
        for the desk scale (|G| <= MAX_SUBGROUP_ORDER).
        """
        check_subgroup_order(self.name, len(self.elements))
        found = {frozenset({self.identity})}
        frontier = list(found)
        while frontier:
            nxt = []
            for h in frontier:
                for g in self.elements:
                    if g in h:
                        continue
                    grown = self.subgroup_closure(h | {g})
                    if grown not in found:
                        found.add(grown)
                        nxt.append(grown)
            frontier = nxt
        return tuple(sorted(found, key=self.subset_key))

    def subset_key(self, subset: frozenset):
        return (len(subset), tuple(sorted(self.index[a] for a in subset)))

    def subset_label(self, subset: frozenset) -> str:
        if len(subset) == 1:
            return "1"
        if len(subset) == len(self.elements):
            return self.name
        elems = sorted(subset, key=lambda a: self.index[a])
        return "{" + ",".join(elems) + "}"

    def conjugate(self, subset: frozenset, g: str) -> frozenset:
        gi = self.inv(g)
        return frozenset(self.mult(self.mult(gi, h), g) for h in subset)

    def coset(self, g: str, subset: frozenset) -> frozenset:
        """The left coset g K, as a set of elements."""
        return frozenset(self.mult(g, k) for k in subset)

    def is_p_group(self, subset: frozenset, p: int) -> bool:
        n = len(subset)
        while n % p == 0:
            n //= p
        return n == 1

    def to_data(self) -> dict:
        return {
            "name": self.name,
            "elements": list(self.elements),
            "table": [[self.mult(a, b) for b in self.elements] for a in self.elements],
        }

    def __repr__(self):
        return f"<FiniteGroup {self.name}: order {len(self.elements)}>"


def check_subgroup_order(name: str, order: int) -> None:
    """Refuse subgroup enumeration on a group of this order above the limit."""
    if order > MAX_SUBGROUP_ORDER:
        raise EngineError(f"subgroup enumeration is limited to |G| <= {MAX_SUBGROUP_ORDER}, "
                          f"and {name} has order {order}")
