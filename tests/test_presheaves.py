import random

import pytest

from finsite.fields import identity_matrix, matrix
from finsite.presheaves import (LinearPresheaf, PresheafError, SetPresheaf,
                                constant_linear_presheaf, constant_set_presheaf,
                                intertwiner_basis, invertible_intertwiner,
                                is_intertwiner, is_natural_set_map,
                                presheaves_isomorphic, representable_presheaf,
                                set_presheaf_isomorphism, singleton_presheaf,
                                zero_presheaf)
from finsite.sampling import random_linear_presheaf, random_set_presheaf


def test_set_presheaf_validates_functoriality(chain3):
    ident = {0: 0, 1: 1}
    with pytest.raises(PresheafError, match="functoriality"):
        SetPresheaf(chain3, {"x": (0, 1), "y": (0, 1), "z": (0, 1)},
                    {"1x": ident, "1y": ident, "1z": ident,
                     "f": ident, "g": {0: 0, 1: 0}, "gf": ident})
    with pytest.raises(PresheafError, match="identity"):
        SetPresheaf(chain3, {"x": (0, 1), "y": (), "z": ()},
                    {"1x": {0: 1, 1: 0}, "1y": {}, "1z": {},
                     "f": {}, "g": {}, "gf": {}})


def test_representable_presheaf(chain3):
    f = representable_presheaf(chain3, "z")
    assert f.at("x") == ("gf",)
    assert f.at("y") == ("g",)
    assert f.at("z") == ("1z",)
    assert f.apply("g", "1z") == "g"
    assert f.apply("f", "g") == "gf"


def test_linear_presheaf_validates(chain3, f5):
    with pytest.raises(PresheafError):
        LinearPresheaf(chain3, f5, {"x": 1, "y": 1, "z": 1},
                       {"1x": identity_matrix(f5, 1),
                        "1y": identity_matrix(f5, 1),
                        "1z": identity_matrix(f5, 1),
                        "f": matrix(f5, [[2]]), "g": matrix(f5, [[2]]),
                        "gf": matrix(f5, [[3]])})  # 2*2 = 4 != 3


def test_zero_and_constant(chain3, f5):
    z = zero_presheaf(chain3, f5)
    assert z.total_dim() == 0
    c = constant_linear_presheaf(chain3, f5, 2)
    assert c.at("x") == 2
    s = constant_set_presheaf(chain3, ("a", "b"))
    assert s.apply("g", "a") == "a"
    assert singleton_presheaf(chain3).total_size() == 3


def test_set_isomorphism_checker(involution):
    f = SetPresheaf(involution, {"x": ("p", "q"), "y": ("s",)},
                    {"1x": {"p": "p", "q": "q"}, "h": {"p": "q", "q": "p"},
                     "1y": {"s": "s"}, "f": {"s": "p"}, "g": {"s": "q"}})
    g = SetPresheaf(involution, {"x": ("u", "v"), "y": ("t",)},
                    {"1x": {"u": "u", "v": "v"}, "h": {"u": "v", "v": "u"},
                     "1y": {"t": "t"}, "f": {"t": "v"}, "g": {"t": "u"}})
    iso = set_presheaf_isomorphism(f, g)
    assert iso is not None
    assert is_natural_set_map(f, g, iso)
    # a fixed point cannot match a swap
    h = SetPresheaf(involution, {"x": ("u", "v"), "y": ("t",)},
                    {"1x": {"u": "u", "v": "v"}, "h": {"u": "u", "v": "v"},
                     "1y": {"t": "t"}, "f": {"t": "v"}, "g": {"t": "v"}})
    assert set_presheaf_isomorphism(f, h) is None


def test_linear_isomorphism_checker(chain3, f5):
    rng = random.Random(5)
    f = random_linear_presheaf(chain3, f5, rng)
    # twist by changing basis at each object
    from finsite.fields import inverse, mat_mul
    from finsite.sampling import random_invertible_matrix
    twists = {x: random_invertible_matrix(f5, f.at(x), rng) for x in chain3.objects}
    mats = {m.name: mat_mul(f5, twists[m.dom],
                            mat_mul(f5, f.mat(m.name), inverse(f5, twists[m.cod])))
            for m in chain3.morphisms}
    g = LinearPresheaf(chain3, f5, dict(f.dims), mats)
    iso = invertible_intertwiner(f.rep, g.rep)
    assert iso is not None
    assert is_intertwiner(f.rep, g.rep, iso)
    assert presheaves_isomorphic(f, g)
    bigger = constant_linear_presheaf(chain3, f5, 1 + max(f.dims.values()))
    assert invertible_intertwiner(f.rep, bigger.rep) is None


def test_natural_transformation_space_of_representable(chain3, f5):
    # maps out of the free rank-one presheaf match the value at the corner
    one = constant_linear_presheaf(chain3, f5, 1)
    basis = intertwiner_basis(one.rep, one.rep)
    assert len(basis) == 1


def test_random_set_presheaf_is_functorial(chain3, involution, orbit_c2):
    rng = random.Random(3)
    for cat in (chain3, involution, orbit_c2):
        for _ in range(5):
            f = random_set_presheaf(cat, rng)   # constructor validates
            assert all(len(f.at(x)) >= 0 for x in cat.objects)


def test_random_linear_presheaf_is_functorial(chain3, involution, orbit_c2, f2):
    rng = random.Random(4)
    for cat in (chain3, involution, orbit_c2):
        for _ in range(5):
            f = random_linear_presheaf(cat, f2, rng)
            LinearPresheaf(cat, f2, dict(f.dims), dict(f.mats))


def test_restrict(chain3, f5):
    c = constant_linear_presheaf(chain3, f5, 2)
    r = c.restrict(("x", "y"))
    assert r.cat.objects == ("x", "y")
    assert r.at("x") == 2
    s = representable_presheaf(chain3, "z").restrict(("x", "y"))
    assert s.at("x") == ("gf",)
