import re

import pytest

from finsite.errors import EngineError
from finsite.sieves import Sieve, is_sieve, maximal_sieve, pullback_sieve, sieves_on


def members(sieves):
    return [frozenset(s.members) for s in sieves]


def test_sieves_on_chain3(chain3):
    at_z = sieves_on(chain3, "z")
    assert members(at_z) == [frozenset(), {"gf"}, {"g", "gf"}, {"1z", "g", "gf"}]
    at_x = sieves_on(chain3, "x")
    assert members(at_x) == [frozenset(), {"1x"}]
    at_y = sieves_on(chain3, "y")
    assert members(at_y) == [frozenset(), {"f"}, {"1y", "f"}]


def test_sieves_on_group(group_c2):
    at = sieves_on(group_c2, "*")
    assert members(at) == [frozenset(), {"e", "r"}]


def test_sieves_on_involution(involution):
    assert members(sieves_on(involution, "x")) == [frozenset(), {"1x", "h"}]
    assert members(sieves_on(involution, "y")) == \
        [frozenset(), {"f", "g"}, {"1y", "f", "g"}]


def test_is_sieve(chain3):
    assert is_sieve(chain3, "z", {"g", "gf"})
    assert not is_sieve(chain3, "z", {"g"})       # misses the precomposite gf
    assert not is_sieve(chain3, "z", {"1z"})      # identity drags everything in
    assert not is_sieve(chain3, "y", {"gf"})      # wrong codomain


def test_pullback_identity_is_identity(chain3):
    for x in chain3.objects:
        for s in sieves_on(chain3, x):
            assert pullback_sieve(chain3, s, chain3.id_of(x)) == s


def test_pullback_examples(chain3):
    s = Sieve("z", frozenset({"g", "gf"}))
    assert pullback_sieve(chain3, s, "g") == maximal_sieve(chain3, "y")
    assert pullback_sieve(chain3, Sieve("z", frozenset()), "g") == Sieve("y", frozenset())
    with pytest.raises(EngineError):
        pullback_sieve(chain3, s, "f")


def test_pullback_is_always_a_sieve(chain3, involution, orbit_c2):
    for cat in (chain3, involution, orbit_c2):
        for x in cat.objects:
            for s in sieves_on(cat, x):
                for f in cat.into(x):
                    pulled = pullback_sieve(cat, s, f)
                    assert is_sieve(cat, pulled.target, pulled.members)


# Gallery members; on orbit S4 --p 3 the object S4/1 is past the sieve guard.
GALLERY = [("chain1",), ("chain2",), ("chain3",), ("chain4",), ("chain5",), ("chain6",),
           ("chain7",), ("chain8",), ("involution",), ("idem",), ("idem-split",),
           ("group", "trivial"), ("group", "C2"), ("group", "C4"), ("group", "S3"),
           ("orbit", "trivial"), ("orbit", "C2"), ("orbit", "C4"), ("orbit", "S3"),
           ("orbit", "S3", 2), ("orbit", "S3", 3), ("orbit-p", "S3", 2),
           ("orbit-p", "S3", 3), ("orbit-p", "S4", 3), ("orbit", "S4", 3)]


@pytest.mark.parametrize("member", GALLERY, ids=lambda m: " ".join(map(str, m)))
def test_sieves_on_matches_subset_scan(member):
    from finsite.gallery import category_by_name
    from oracles import subset_scan_sieves
    cat = category_by_name(member[0], group=member[1] if len(member) > 1 else None,
                           p=member[2] if len(member) > 2 else None)
    for x in cat.objects:
        n = len(cat.into(x))
        if n > 20:
            expected = (f"^sieve enumeration refused at {re.escape(repr(x))}: "
                        f"{n} morphisms into it, above the limit 20$")
            with pytest.raises(EngineError, match=expected):
                sieves_on(cat, x)
        else:
            assert sieves_on(cat, x) == subset_scan_sieves(cat, x), x
