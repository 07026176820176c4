"""Finite groups as explicit Cayley tables, with the subgroup machinery
needed to build orbit categories (closure, conjugation, cosets)."""

from __future__ import annotations

from typing import Iterable

from .errors import EngineError

# Subgroups, and with them orbit categories, are enumerated for groups of
# at most this order.
MAX_SUBGROUP_ORDER = 24


class InvalidGroupError(EngineError):
    def __init__(self, problems):
        self.problems = list(problems)
        lines = "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(f"invalid group:\n{lines}")


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
        self.identity = next(e for e in self.elements
                             if all(self.table[(e, b)] == b for b in self.elements))
        self._inv = {}
        for a in self.elements:
            for b in self.elements:
                if self.table[(a, b)] == self.identity and self.table[(b, a)] == self.identity:
                    self._inv[a] = b
                    break

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
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if (self.table[(self.table[(a, b)], c)]
                            != self.table[(a, self.table[(b, c)])]):
                        problems.append(f"associativity failure ({a!r},{b!r},{c!r})")
        idents = [e for e in self.elements
                  if all(self.table[(e, b)] == b == self.table[(b, e)] for b in self.elements)]
        if len(idents) != 1:
            problems.append("no two-sided identity element")
            return problems
        e = idents[0]
        for a in self.elements:
            if not any(self.table[(a, b)] == e and self.table[(b, a)] == e
                       for b in self.elements):
                problems.append(f"no inverse for {a!r}")
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
