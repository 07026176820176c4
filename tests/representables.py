"""The direct sum of the linearised representables Hom(-, c) over every
object c of a gallery category: the value at x has the basis Hom(x, c)
over all c, and m: w -> x sends the basis vector of u to that of u m.

Run as a script, it writes the presheaf document of that sum to stdout:

    PYTHONPATH=src python tests/representables.py --gallery orbit-p --group S4 --p 2 --field 5
"""

from __future__ import annotations

import argparse
import sys

from finsite.fields import Matrix, field_by_label
from finsite.gallery import category_by_name
from finsite.presheaves import LinearPresheaf
from finsite.serialize import dump_text, presheaf_to_doc


def linearised_representables(cat, field) -> LinearPresheaf:
    basis = {x: [(c, u) for c in cat.objects for u in cat.hom(x, c)] for x in cat.objects}
    index = {x: {b: i for i, b in enumerate(basis[x])} for x in cat.objects}
    mats = {}
    for m in cat.morphisms:
        rows = [[field.zero] * len(basis[m.cod]) for _ in basis[m.dom]]
        for j, (c, u) in enumerate(basis[m.cod]):
            rows[index[m.dom][(c, cat.compose(u, m.name))]][j] = field.one
        mats[m.name] = Matrix(len(rows), len(basis[m.cod]), tuple(map(tuple, rows)))
    return LinearPresheaf(cat, field, {x: len(basis[x]) for x in cat.objects}, mats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gallery", required=True)
    parser.add_argument("--group")
    parser.add_argument("--p", type=int)
    parser.add_argument("--field", default="5")
    args = parser.parse_args(argv)
    cat = category_by_name(args.gallery, group=args.group, p=args.p)
    sys.stdout.write(dump_text(presheaf_to_doc(
        linearised_representables(cat, field_by_label(args.field)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
