"""Output checkers, written apart from finsite.

Every checker takes the parsed stdout document of one command plus the
inputs it was given, recomputes what the paper says the answer must be
with the exact arithmetic of ``exact.py``, and raises ``CheckError`` on
the first disagreement. Categories come from ``finsite gallery show``
documents; nothing here imports finsite.
"""

from __future__ import annotations

import itertools

from exact import Field, combine, identity, mul, rank, trace


class CheckError(Exception):
    pass


def require(cond, message: str):
    if not cond:
        raise CheckError(message)


# -- categories -------------------------------------------------------------


class Cat:
    """A finite category read from a ``kind: category`` document."""

    def __init__(self, doc: dict):
        self.objects = list(doc["objects"])
        self.morphisms = [m["id"] for m in doc["morphisms"]]
        self.dom = {m["id"]: m["dom"] for m in doc["morphisms"]}
        self.cod = {m["id"]: m["cod"] for m in doc["morphisms"]}
        self.ident = dict(doc["identities"])
        self.comp = {(c["g"], c["f"]): c["gf"] for c in doc["compose"]}
        self.into = {x: [m for m in self.morphisms if self.cod[m] == x]
                     for x in self.objects}
        self.hom = {}
        for m in self.morphisms:
            self.hom.setdefault((self.dom[m], self.cod[m]), []).append(m)
        self.classes = self._iso_classes()

    def homs(self, x, y) -> list:
        return self.hom.get((x, y), [])

    def is_iso(self, f) -> bool:
        x, y = self.dom[f], self.cod[f]
        return any(self.comp[(g, f)] == self.ident[x] and self.comp[(f, g)] == self.ident[y]
                   for g in self.homs(y, x))

    def _iso_classes(self) -> list:
        classes = []
        seen = set()
        for x in self.objects:
            if x in seen:
                continue
            cls = [y for y in self.objects
                   if y == x or any(self.is_iso(f) for f in self.homs(x, y))]
            seen.update(cls)
            classes.append(cls)
        return classes

    def iso_closed_subsets(self):
        """Every union of isomorphism classes, as an object set."""
        for picks in itertools.product((False, True), repeat=len(self.classes)):
            yield frozenset(x for cls, on in zip(self.classes, picks) if on for x in cls)

    def principal(self, u) -> frozenset:
        return frozenset(self.comp[(u, v)] for v in self.into[self.dom[u]])

    def generated(self, x, gens) -> frozenset:
        out = set()
        for u in gens:
            out |= self.principal(u)
        return frozenset(out)

    def sieves(self, x) -> list:
        """All sieves on x, as unions of principal sieves."""
        found = {frozenset()}
        frontier = [frozenset()]
        while frontier:
            nxt = []
            for s in frontier:
                for u in self.into[x]:
                    if u not in s:
                        t = s | self.principal(u)
                        if t not in found:
                            found.add(t)
                            nxt.append(t)
            frontier = nxt
        return list(found)

    def from_d(self, d, x) -> list:
        """Morphisms into x whose domain lies in the object set d."""
        return [t for t in self.into[x] if self.dom[t] in d]

    def generated_by_d(self, d, x) -> frozenset:
        return self.generated(x, self.from_d(d, x))

    def table(self, d) -> dict:
        """J^D: the covering sieves on x are those containing S_D(x)."""
        out = {}
        for x in self.objects:
            least = self.generated_by_d(d, x)
            out[x] = frozenset(s for s in self.sieves(x) if least <= s)
        return out

    def karoubian_within(self, d) -> bool:
        """Every idempotent between objects of d splits through an object of d."""
        for x in d:
            for e in self.homs(x, x):
                if self.comp[(e, e)] != e:
                    continue
                if not any(self.comp[(r, s)] == self.ident[z] and self.comp[(s, r)] == e
                           for z in d for r in self.homs(x, z) for s in self.homs(z, x)):
                    return False
        return True

    def axioms_hold(self, covering: dict) -> bool:
        """Maximal sieve, stability and transitivity, checked by brute force."""
        for x in self.objects:
            if frozenset(self.into[x]) not in covering[x]:
                return False
            for s in covering[x]:
                for f in self.into[x]:
                    pulled = frozenset(g for g in self.into[self.dom[f]]
                                       if self.comp[(f, g)] in s)
                    if pulled not in covering[self.dom[f]]:
                        return False
            for s in covering[x]:
                for r in self.sieves(x):
                    if r in covering[x]:
                        continue
                    if all(frozenset(g for g in self.into[self.dom[f]]
                                     if self.comp[(f, g)] in r) in covering[self.dom[f]]
                           for f in s):
                        return False
        return True

    def check_table(self):
        """Identity laws and associativity over composable triples."""
        for f in self.morphisms:
            require(self.comp[(self.ident[self.cod[f]], f)] == f
                    and self.comp[(f, self.ident[self.dom[f]])] == f,
                    f"identity law fails at {f!r}")
        for g in self.morphisms:
            for f in self.into[self.dom[g]]:
                gf = self.comp[(g, f)]
                for h in self.into[self.dom[f]]:
                    require(self.comp.get((gf, h)) == self.comp[(g, self.comp[(f, h)])],
                            f"associativity fails at ({g!r},{f!r},{h!r})")


def label_of(cat: Cat, d) -> str:
    return "J^{" + ",".join(x for x in cat.objects if x in d) + "}"


# -- census -----------------------------------------------------------------


def closed_form_count(member: str):
    """Topology counts known in closed form, or None."""
    if member.startswith("chain"):
        return 2 ** int(member[5:])
    if member.startswith("group"):
        return 2
    if member == "idem":
        return 3
    return None


def check_census(out: dict, cat: Cat, member: str):
    tops = out["topologies"]
    require(out["count"] == len(tops), "count differs from the number of topologies")
    got = []
    for t in tops:
        require(set(t["covering"]) == set(cat.objects), "covering misses an object")
        got.append({x: frozenset(frozenset(s) for s in t["covering"][x])
                    for x in cat.objects})
    keys = [tuple(g[x] for x in cat.objects) for g in got]
    require(len(set(keys)) == len(keys), "a topology is listed twice")
    expect = closed_form_count(member)
    if expect is not None:
        require(len(tops) == expect, f"{len(tops)} topologies, closed form says {expect}")
    induced = {}
    for d in cat.iso_closed_subsets():
        key = tuple(cat.table(d)[x] for x in cat.objects)
        if cat.karoubian_within(d):
            induced.setdefault(key, set()).add(label_of(cat, d))
        else:
            induced.setdefault(key, set())
    karoubian_keys = {k for k, labels in induced.items() if labels}
    if cat.karoubian_within(set(cat.objects)):
        # The classification: topologies are exactly the J^D.
        require(set(keys) == set(induced), "census differs from {J^D : D iso-closed}")
    else:
        require(karoubian_keys <= set(keys), "census misses some J^D")
        for g in got:
            require(cat.axioms_hold(g), "a listed covering fails the topology axioms")
    for t, key in zip(tops, keys):
        labels = induced.get(key, set()) if key in karoubian_keys else set()
        if t.get("label") == "J?":
            require(not labels, "a classifiable topology is labelled J?")
        else:
            require(t.get("label") in labels, f"label {t.get('label')!r} does not "
                                              "name a subcategory inducing it")


# -- presheaves ---------------------------------------------------------------


class Linear:
    """A linear presheaf (or the space of a module presheaf) from a document."""

    flavor = "linear"

    def __init__(self, doc: dict, cat: Cat, objects=None):
        self.k = Field.from_label(doc["field"])
        self.objects = list(objects if objects is not None else cat.objects)
        keep = set(self.objects)
        self.mors = [m for m in cat.morphisms if cat.dom[m] in keep and cat.cod[m] in keep]
        require(set(doc["dims"]) == keep, "dims do not list exactly the objects")
        require(set(doc["maps"]) == set(self.mors), "maps do not list exactly the morphisms")
        self.dims = {x: int(doc["dims"][x]) for x in self.objects}
        try:
            self.maps = {m: self.k.matrix(doc["maps"][m], self.dims[cat.dom[m]],
                                          self.dims[cat.cod[m]])
                         for m in self.mors}
        except ValueError as exc:
            raise CheckError(f"bad map: {exc}") from None
        self.cat = cat

    def check_functor(self):
        cat, k = self.cat, self.k
        for x in self.objects:
            require(self.maps[cat.ident[x]] == identity(self.dims[x]),
                    f"identity at {x!r} is not the identity matrix")
        for g in self.mors:
            for f in cat.into[cat.dom[g]]:
                if f in self.maps:
                    lhs = mul(k, self.maps[f], self.maps[g], self.dims[cat.cod[g]])
                    require(lhs == self.maps[cat.comp[(g, f)]],
                            f"functoriality fails on ({g!r},{f!r})")

    def invariants(self, d) -> dict:
        """Isomorphism invariants of the restriction to d: dimensions,
        ranks of every map, traces of endomorphisms."""
        k = self.k
        out = {("dim", x): self.dims[x] for x in d}
        for m in self.mors:
            if self.cat.dom[m] in d and self.cat.cod[m] in d:
                a = self.maps[m]
                out[("rank", m)] = rank(k, a, self.dims[self.cat.cod[m]])
                if self.cat.dom[m] == self.cat.cod[m]:
                    out[("trace", m)] = trace(k, a)
        return out

    def families_dim(self, members: list, allowed) -> int:
        """Dimension of the compatible families over the members, where
        compatibility is asked along every v into dom(u) with allowed(v)."""
        cat, k = self.cat, self.k
        offsets = {}
        total = 0
        for u in members:
            offsets[u] = total
            total += self.dims[cat.dom[u]]
        rows = []
        for u in members:
            for v in cat.into[cat.dom[u]]:
                if v == cat.ident[cat.dom[u]] or not allowed(v):
                    continue
                a = self.maps[v]
                target = offsets[cat.comp[(u, v)]]
                for r, arow in enumerate(a):
                    row = [0] * total
                    row[offsets[u]:offsets[u] + len(arow)] = arow
                    row[target + r] = k.norm(row[target + r] - 1)
                    rows.append(row)
        return total - rank(k, rows, total)

    def restriction_rank(self, x, members: list) -> int:
        rows = [r for u in members for r in self.maps[u]]
        return rank(self.k, rows, self.dims[x])

    def size(self, x) -> int:
        return self.dims[x]


class SetValued:
    """A set-valued presheaf from a document."""

    flavor = "set"

    def __init__(self, doc: dict, cat: Cat, objects=None):
        self.objects = list(objects if objects is not None else cat.objects)
        keep = set(self.objects)
        self.mors = [m for m in cat.morphisms if cat.dom[m] in keep and cat.cod[m] in keep]
        require(set(doc["values"]) >= keep, "values miss an object")
        self.values = {x: list(doc["values"][x]) for x in self.objects}
        require(set(doc["maps"]) == set(self.mors), "maps do not list exactly the morphisms")
        self.maps = {m: dict(doc["maps"][m]) for m in self.mors}
        self.cat = cat

    def check_functor(self):
        cat = self.cat
        for x in self.objects:
            require(len(set(self.values[x])) == len(self.values[x]),
                    f"repeated element at {x!r}")
        for m in self.mors:
            table = self.maps[m]
            require(set(table) == set(self.values[cat.cod[m]]), f"map of {m!r} is not total")
            require(set(table.values()) <= set(self.values[cat.dom[m]]),
                    f"map of {m!r} leaves its codomain")
        for x in self.objects:
            require(all(a == b for a, b in self.maps[cat.ident[x]].items()),
                    f"identity at {x!r} moves an element")
        for g in self.mors:
            for f in cat.into[cat.dom[g]]:
                if f in self.maps:
                    gf = self.maps[cat.comp[(g, f)]]
                    require(all(self.maps[f][self.maps[g][a]] == gf[a] for a in gf),
                            f"functoriality fails on ({g!r},{f!r})")

    def invariants(self, d) -> dict:
        out = {("size", x): len(self.values[x]) for x in d}
        for m in self.mors:
            if self.cat.dom[m] in d and self.cat.cod[m] in d:
                table = self.maps[m]
                out[("image", m)] = len(set(table.values()))
                if self.cat.dom[m] == self.cat.cod[m]:
                    out[("fixed", m)] = sum(1 for a, b in table.items() if a == b)
        return out

    def families(self, members: list, allowed) -> list:
        """Every compatible family, by backtracking over the members."""
        cat = self.cat
        pos = {u: i for i, u in enumerate(members)}
        links = []  # (i, v, j): family[j] must equal F(v)(family[i])
        for u in members:
            for v in cat.into[cat.dom[u]]:
                if v != cat.ident[cat.dom[u]] and allowed(v):
                    links.append((pos[u], v, pos[cat.comp[(u, v)]]))
        by_last = [[] for _ in members]
        for i, v, j in links:
            by_last[max(i, j)].append((i, v, j))
        pools = [self.values[cat.dom[u]] for u in members]
        out = []
        fam = [None] * len(members)

        def extend(n):
            if n == len(members):
                out.append(tuple(fam))
                return
            for a in pools[n]:
                fam[n] = a
                if all(self.maps[v][fam[i]] == fam[j] for i, v, j in by_last[n]):
                    extend(n + 1)
            fam[n] = None

        extend(0)
        return out

    def families_dim(self, members, allowed) -> int:
        return len(self.families(members, allowed))

    def restriction_is_bijective(self, x, members, allowed) -> bool:
        images = [tuple(self.maps[u][a] for u in members) for a in self.values[x]]
        fams = self.families(members, allowed)
        return len(set(images)) == len(images) == len(fams) and set(images) == set(fams)

    def size(self, x) -> int:
        return len(self.values[x])


def read_presheaf(doc: dict, cat: Cat, objects=None):
    require(doc.get("kind") == "presheaf", "not a presheaf document")
    if doc["flavor"] == "set":
        return SetValued(doc, cat, objects)
    return Linear(doc, cat, objects)


def descent_holds(f, x, members: list, allowed) -> bool:
    """The restriction from F(x) into compatible families is a bijection."""
    if f.flavor == "set":
        return f.restriction_is_bijective(x, members, allowed)
    return (f.families_dim(members, allowed) == f.dims[x]
            and f.restriction_rank(x, members) == f.dims[x])


def rk_members(cat: Cat, d, x):
    return cat.from_d(d, x), (lambda v: cat.dom[v] in d)


def check_values_kept(out, given, d):
    require(out.invariants(d) == given.invariants(d),
            "values on D changed (dimension, rank or trace differs)")


def check_sheaf_for(out, cat: Cat, d):
    """out is a J^D-sheaf: at every x outside D it is the right Kan
    extension of its restriction to D."""
    for x in cat.objects:
        if x not in d:
            members, allowed = rk_members(cat, d, x)
            require(descent_holds(out, x, members, allowed),
                    f"output is not a sheaf: descent fails at {x!r}")


def check_kan_values(out, given, cat: Cat, d):
    """Outside D the value is the space (or set) of families of the input
    restricted to D over D/x."""
    for x in cat.objects:
        if x not in d:
            members, allowed = rk_members(cat, d, x)
            require(out.size(x) == given.families_dim(members, allowed),
                    f"value at {x!r} differs from the families over D/x")


def check_sheafify(out_doc: dict, in_doc: dict, cat: Cat, d):
    out = read_presheaf(out_doc, cat)
    given = read_presheaf(in_doc, cat)
    require(out.flavor == given.flavor, "flavour changed")
    out.check_functor()
    check_values_kept(out, given, d)
    check_kan_values(out, given, cat, d)
    check_sheaf_for(out, cat, d)


def check_kan(out_doc: dict, in_doc: dict, cat: Cat, d):
    out = read_presheaf(out_doc, cat)
    given = read_presheaf(in_doc, cat, [x for x in cat.objects if x in d])
    out.check_functor()
    check_values_kept(out, given, d)
    check_kan_values(out, given, cat, d)
    check_sheaf_for(out, cat, d)


def check_sheaf_verdict(out: dict, in_doc: dict, cat: Cat, d):
    """The verdict of ``sheaf check`` against descent on every covering sieve."""
    f = read_presheaf(in_doc, cat)
    table = cat.table(d)
    everything = lambda v: True
    failing = [(x, s) for x in cat.objects for s in table[x]
               if not descent_holds(f, x, sorted(s, key=cat.morphisms.index), everything)]
    require(out["sheaf"] == (not failing), "sheaf verdict is wrong")
    if failing:
        named = frozenset(out["sieve"])
        require((out["object"], named) in failing,
                "the named sieve is not a failing covering sieve")


def dense_subcategory(cat: Cat):
    """The iso-closed D whose J^D is the dense topology."""
    def dense_at(x, s):
        return all(any(cat.comp[(f, g)] in s for g in cat.into[cat.dom[f]])
                   for f in cat.into[x])
    for d in cat.iso_closed_subsets():
        ok = True
        for x in cat.objects:
            least = cat.generated_by_d(d, x)
            if not dense_at(x, least) or any(dense_at(x, s) and not least <= s
                                            for s in cat.sieves(x)):
                ok = False
                break
        if ok:
            return d
    raise CheckError("no subcategory induces the dense topology")


# -- algebras and modules --------------------------------------------------------


class Coefficients:
    """A presheaf of algebras: per object a based algebra, per morphism a matrix."""

    def __init__(self, doc, cat: Cat, k: Field):
        self.k = k
        self.dim, self.table, self.unit, self.maps = {}, {}, {}, {}
        if doc is None:  # constant coefficients: the field itself
            for x in cat.objects:
                self.dim[x], self.table[x], self.unit[x] = 1, [[[1]]], [1]
            self.maps = {m: [[1]] for m in cat.morphisms}
            return
        for x in cat.objects:
            a = doc["algebras"][x]
            self.dim[x] = a["dim"]
            self.table[x] = [[[k.parse(c) for c in cell] for cell in row] for row in a["table"]]
            self.unit[x] = [k.parse(c) for c in a["unit"]]
        for m in cat.morphisms:
            self.maps[m] = k.matrix(doc["maps"][m], self.dim[cat.dom[m]],
                                    self.dim[cat.cod[m]])

    def mul(self, x, u, v) -> list:
        k, n = self.k, self.dim[x]
        out = [0] * n
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        for t, c in enumerate(self.table[x][i][j]):
                            if c:
                                out[t] += a * b * c
        return [k.norm(c) for c in out]


class Skew:
    """The skew category algebra R[C]: basis (f, j) for a morphism f and a
    basis element j of R(dom f); (g, s)(f, r) = (gf, R(f)(s) r)."""

    def __init__(self, cat: Cat, coeffs: Coefficients, objects=None):
        keep = set(objects if objects is not None else cat.objects)
        self.cat, self.r, self.k = cat, coeffs, coeffs.k
        self.mors = [m for m in cat.morphisms if cat.dom[m] in keep and cat.cod[m] in keep]
        self.objects = [x for x in cat.objects if x in keep]
        self.offset = {}
        n = 0
        for m in self.mors:
            self.offset[m] = n
            n += coeffs.dim[cat.dom[m]]
        self.dim = n
        self.basis = [(m, j) for m in self.mors for j in range(coeffs.dim[cat.dom[m]])]

    def product(self, a: int, b: int):
        """(block start, coefficient vector) of basis a times basis b, or None."""
        cat, r = self.cat, self.r
        (g, j), (f, i) = self.basis[a], self.basis[b]
        if cat.dom[g] != cat.cod[f]:
            return None
        x = cat.dom[f]
        moved = [row[j] for row in r.maps[f]]
        unit_i = [1 if t == i else 0 for t in range(r.dim[x])]
        return self.offset[cat.comp[(g, f)]], r.mul(x, moved, unit_i)

    def element(self, f, coeffs) -> list:
        out = [0] * self.dim
        out[self.offset[f]:self.offset[f] + len(coeffs)] = coeffs
        return out

    def idempotent(self, x) -> list:
        return self.element(self.cat.ident[x], self.r.unit[x])

    def unit(self) -> list:
        out = [0] * self.dim
        for x in self.objects:
            e = self.idempotent(x)
            out = [a + b for a, b in zip(out, e)]
        return out


def check_algebra_module(out: dict, skew: Skew):
    """Module axioms of a right module over the skew algebra."""
    k = skew.k
    require(Field.from_label(out["field"]).p == k.p, "field changed")
    n = out["dim"]
    require(len(out["actions"]) == skew.dim, "need one action per basis element")
    try:
        acts = [k.matrix(a, n, n) for a in out["actions"]]
    except ValueError as exc:
        raise CheckError(f"bad action: {exc}") from None
    require(combine(k, skew.unit(), acts, n) == identity(n), "unit does not act as 1")
    zero = [[0] * n for _ in range(n)]
    for a in range(skew.dim):
        for b in range(skew.dim):
            prod = skew.product(a, b)
            rhs = mul(k, acts[b], acts[a], n)
            if prod is None:
                require(rhs == zero, "a non-composable product acts nonzero")
                continue
            start, vec = prod
            lhs = combine(k, vec, acts[start:start + len(vec)], n)
            require(lhs == rhs, f"action not multiplicative on {skew.basis[a]}, {skew.basis[b]}")
    return acts


def idempotent_ranks(skew: Skew, acts: list, n: int) -> dict:
    return {x: rank(skew.k, combine(skew.k, skew.idempotent(x), acts, n), n)
            for x in skew.objects}


def check_bundled(out: dict, module_doc: dict, cat: Cat, coeffs: Coefficients, objects=None):
    """theta and transport: a module over R|_D[D] whose object idempotents
    cut out the values of the given module presheaf."""
    skew = Skew(cat, coeffs, objects)
    acts = check_algebra_module(out, skew)
    dims = module_doc["dims"]
    require(out["dim"] == sum(dims[x] for x in skew.objects), "total dimension is wrong")
    require(idempotent_ranks(skew, acts, out["dim"]) == {x: dims[x] for x in skew.objects},
            "object idempotent ranks differ from the value dimensions")


def check_module_presheaf(out: dict, cat: Cat, coeffs: Coefficients):
    """A presheaf of right modules: functorial, a module at every object,
    and restriction compatible with the actions."""
    require(out.get("kind") == "module-presheaf", "not a module-presheaf document")
    space = Linear(out, cat)
    space.check_functor()
    k = coeffs.k
    acts = {}
    for x in cat.objects:
        n, dx = space.dims[x], coeffs.dim[x]
        raw = out["actions"][x]
        require(len(raw) == dx, f"need one action per basis element at {x!r}")
        try:
            acts[x] = [k.matrix(a, n, n) for a in raw]
        except ValueError as exc:
            raise CheckError(f"bad action: {exc}") from None
        require(combine(k, coeffs.unit[x], acts[x], n) == identity(n),
                f"unit does not act as 1 at {x!r}")
        for i in range(dx):
            for j in range(dx):
                lhs = combine(k, coeffs.table[x][i][j], acts[x], n)
                require(lhs == mul(k, acts[x][j], acts[x][i], n),
                        f"action not multiplicative at {x!r}")
    for m in cat.morphisms:
        x, y = cat.dom[m], cat.cod[m]
        mf = space.maps[m]
        for j in range(coeffs.dim[y]):
            lhs = mul(k, mf, acts[y][j], space.dims[y])
            moved = [row[j] for row in coeffs.maps[m]]
            rhs = mul(k, combine(k, moved, acts[x], space.dims[x]), mf, space.dims[y])
            require(lhs == rhs, f"restriction along {m!r} breaks the action")
    return space


def check_unbundled(out: dict, module_doc: dict, cat: Cat, coeffs: Coefficients):
    """omega: a module presheaf whose values have the ranks of the object
    idempotents on the given module."""
    space = check_module_presheaf(out, cat, coeffs)
    skew = Skew(cat, coeffs)
    n = module_doc["dim"]
    acts = [coeffs.k.matrix(a, n, n) for a in module_doc["actions"]]
    require(space.dims == idempotent_ranks(skew, acts, n),
            "value dimensions differ from the object idempotent ranks")


def check_roundtrip(out: dict, cat: Cat, count: int, seed: int):
    require(out["seed"] == seed and out["count"] == count == len(out["results"]),
            "roundtrip reports the wrong instances")
    require(out["ok"] is True, "roundtrip reports a failure")
    for inst in out["results"]:
        require(inst["unbundle_bundle"] is True and inst["bundle_unbundle"] is True,
                "a roundtrip witness failed")
        require(len(inst["presheaf_dims"]) == len(cat.objects), "dims per object missing")


def check_alg_verify(out: dict, cat: Cat):
    cat.check_table()
    require(out == {"valid": True, "problems": []}, "skew algebra reported invalid")
