import random

import pytest

from conftest import reference_quotient_object
from uniserial import abcat, linalg
from uniserial.abcat import (
    BackendMismatchError,
    ExtSpace,
    Morphism,
    amalgamated_sum,
    are_isomorphic,
    change_basis,
    composition_series,
    direct_sum,
    ext1_basis,
    extract_class,
    fiber_product,
    hom_basis,
    identity_morphism,
    image,
    is_indecomposable,
    is_uniserial,
    kernel,
    pullback_extension,
    realize_extension,
    socle,
    total_dim,
    zero_like,
)
from uniserial.gradedrep import ideal_quotient_rep, simple_rep, validate
from uniserial.linalg import ZERO, Matrix, ONE, Scalar, algebra_radical, inverse, parse_scalar
from uniserial.quiverrep import KRONECKER, QuiverPresentation, QuiverRep, parse_presentation, simple_at
from uniserial.species import species_of
from uniserial.weyl import euler_power
from uniserial.weylcat import weyl_simple_family

HALF = parse_scalar("1/2")
WINDOW = (-4, 4)

S1 = simple_at(KRONECKER, "1")
S2 = simple_at(KRONECKER, "2")
KRONECKER_FAMILY = (("1", S1), ("2", S2))


def weyl_family(window=WINDOW, twists=(0,)):
    fam = []
    for w in twists:
        fam.append(((str(HALF), w), simple_rep(HALF, w, window)))
        fam.append((("0", w), simple_rep("0", w, window)))
        fam.append((("inf", w), simple_rep("inf", w, window)))
    return tuple(fam)


# -- Hom ----------------------------------------------------------------------


def test_hom_simple_self_one_dimensional():
    assert len(hom_basis(S1, S1)) == 1
    m = simple_rep(HALF, 0, WINDOW)
    assert len(hom_basis(m, m)) == 1


def test_hom_distinct_simples_zero():
    assert hom_basis(S1, S2) == []
    assert hom_basis(S2, S1) == []
    a = simple_rep(HALF, 0, WINDOW)
    b = simple_rep("0", 0, WINDOW)
    assert hom_basis(a, b) == []
    assert hom_basis(b, a) == []


def test_hom_additive_over_direct_sum():
    m = simple_rep(HALF, 0, WINDOW)
    ds = direct_sum(m, m)
    assert len(hom_basis(ds.obj, m)) == 2 * len(hom_basis(m, m))


def test_hom_backend_mismatch():
    with pytest.raises(BackendMismatchError):
        hom_basis(S1, simple_rep(HALF, 0, WINDOW))
    with pytest.raises(BackendMismatchError):
        hom_basis(simple_rep(HALF, 0, (-3, 3)), simple_rep(HALF, 0, (-4, 4)))


# -- Ext ----------------------------------------------------------------------


def test_ext_kronecker_two_dimensional():
    assert len(ext1_basis(S1, S2)) == 2
    assert len(ext1_basis(S2, S1)) == 0
    assert len(ext1_basis(S1, S1)) == 0


def test_ext_weyl_self_extension_one_dimensional():
    m = simple_rep(HALF, 0, WINDOW)
    assert len(ext1_basis(m, m)) == 1


def test_ext_weyl_distinct_alpha_zero():
    a = simple_rep(HALF, 0, WINDOW)
    b = simple_rep(parse_scalar("1/3+1/2*i"), 0, WINDOW)
    assert len(ext1_basis(a, b)) == 0


def test_ext_weyl_boundary_pairing_equal_twist():
    z = simple_rep("0", 0, WINDOW)
    inf = simple_rep("inf", 0, WINDOW)
    assert len(ext1_basis(z, inf)) == 1
    assert len(ext1_basis(inf, z)) == 1
    assert len(ext1_basis(z, z)) == 0
    assert len(ext1_basis(inf, inf)) == 0
    # offset twists vanish
    for dw in (-2, -1, 1, 2):
        shifted = simple_rep("inf", dw, WINDOW)
        assert len(ext1_basis(z, shifted)) == 0, dw


def test_ext_dim_invariant_under_basis_change():
    rng = random.Random(17)
    x = ideal_quotient_rep(euler_power(HALF, 2), WINDOW)
    y = simple_rep(HALF, 0, WINDOW)

    x2 = random_basis_change(x, rng)
    y2 = random_basis_change(y, rng)
    assert validate(x2) == []
    assert len(ext1_basis(x, y)) == len(ext1_basis(x2, y2))


def test_realize_zero_class_splits():
    space = ExtSpace(S1, S2)
    zero = space.class_from_coords((Scalar(0), Scalar(0)))
    z, inj, surj = realize_extension(zero)
    assert total_dim(z) == 2
    # a section exists as a module map, so the sequence splits
    sections = [phi for phi in hom_basis(S1, z) if (surj * phi).mats["1"] == Matrix.identity(1)]
    assert sections


def test_realize_extract_roundtrip():
    for cls in ext1_basis(S1, S2):
        z, inj, surj = realize_extension(cls)
        back = extract_class(inj, surj)
        assert back.coords == cls.coords
    m = simple_rep(HALF, 0, WINDOW)
    (cls,) = ext1_basis(m, m)
    z, inj, surj = realize_extension(cls)
    assert validate(z) == []
    back = extract_class(inj, surj)
    assert back.coords == cls.coords


def test_realized_weyl_self_extension_matches_ideal_quotient():
    m = simple_rep(HALF, 0, WINDOW)
    (cls,) = ext1_basis(m, m)
    z, _, _ = realize_extension(cls)
    target = ideal_quotient_rep(euler_power(HALF, 2), WINDOW)
    assert are_isomorphic(z, target)


def test_pullback_identity_and_split():
    (cls, cls2) = ext1_basis(S1, S2)
    pulled = pullback_extension(cls, identity_morphism(S1))
    assert pulled.coords == cls.coords
    zero = cls.space.class_from_coords((Scalar(0), Scalar(0)))
    assert pullback_extension(zero, identity_morphism(S1)).is_zero()


def test_pullback_linear():
    a, b = ext1_basis(S1, S2)
    mono = identity_morphism(S1)
    pa = pullback_extension(a, mono).coords
    pb = pullback_extension(b, mono).coords
    combo = a.space.class_from_coords((Scalar(2), Scalar(3)))
    pc = pullback_extension(combo, mono).coords
    assert pc == tuple(Scalar(2) * x + Scalar(3) * y for x, y in zip(pa, pb))


def test_pullback_rejects_non_injective():
    (cls, _) = ext1_basis(S1, S2)
    with pytest.raises(ValueError):
        pullback_extension(cls, zero_morphism_helper(S1))


def zero_morphism_helper(x):
    return abcat.zero_morphism(x, x)


# -- pullback / pushout objects ----------------------------------------------


def test_fiber_product_against_identity():
    (cls, _) = ext1_basis(S1, S2)
    z, inj, surj = realize_extension(cls)
    obj, p1, p2 = fiber_product(surj, identity_morphism(S1))
    # pulling back along the identity reproduces the middle object
    assert total_dim(obj) == total_dim(z)
    assert p1.is_injective() and p1.is_surjective()


def test_fiber_product_of_zero_maps_is_sum():
    z1 = abcat.zero_morphism(S1, S2)
    z2 = abcat.zero_morphism(S2, S2)
    obj, _, _ = fiber_product(z1, z2)
    assert total_dim(obj) == total_dim(S1) + total_dim(S2)


def test_amalgamated_sum_against_identity():
    (cls, _) = ext1_basis(S1, S2)
    z, inj, surj = realize_extension(cls)
    obj, i1, i2 = amalgamated_sum(inj, identity_morphism(S2))
    assert total_dim(obj) == total_dim(z)


def test_amalgamated_sum_requires_injective():
    with pytest.raises(ValueError):
        amalgamated_sum(abcat.zero_morphism(S2, S1), identity_morphism(S2))


# -- socle / series / uniseriality ---------------------------------------------


def test_socle_of_simple():
    soc = socle(S1, KRONECKER_FAMILY)
    assert total_dim(soc.obj) == 1
    assert dict(soc.multiplicities) == {"1": 1, "2": 0}


def test_socle_of_sum():
    ds = direct_sum(S1, S2)
    soc = socle(ds.obj, KRONECKER_FAMILY)
    assert total_dim(soc.obj) == 2
    assert dict(soc.multiplicities) == {"1": 1, "2": 1}


def test_socle_of_nonsplit_extension_simple():
    m = simple_rep(HALF, 0, WINDOW)
    (cls,) = ext1_basis(m, m)
    z, _, _ = realize_extension(cls)
    fam = weyl_family()
    soc = socle(z, fam)
    assert sum(c for _, c in soc.multiplicities) == 1


def test_composition_series_simple():
    cs = composition_series(S1, KRONECKER_FAMILY)
    assert cs.factors == ("1",)


def test_composition_series_length_two_weyl():
    z = ideal_quotient_rep(euler_power(HALF, 2), WINDOW)
    fam = weyl_family()
    cs = composition_series(z, fam)
    assert cs.factors == ((str(HALF), 0), (str(HALF), 0))


def test_composition_series_word_module():
    from uniserial.weyl import alternating_word

    z = ideal_quotient_rep(alternating_word("0", 2), WINDOW)
    fam = weyl_family()
    cs = composition_series(z, fam)
    assert cs.factors == (("0", 0), ("inf", 0))


def test_indecomposable_simple_true():
    ok, cert = is_indecomposable(S1)
    assert ok and cert == (1, 0)


def test_indecomposable_sum_false():
    ds = direct_sum(S1, S1)
    ok, cert = is_indecomposable(ds.obj)
    assert not ok
    assert cert == (4, 0)


def test_indecomposable_rejects_zero():
    with pytest.raises(ValueError):
        is_indecomposable(zero_like(S1))


def test_are_isomorphic_basics():
    assert are_isomorphic(S1, S1)
    assert not are_isomorphic(S1, S2)
    m = simple_rep(HALF, 0, WINDOW)
    tw = simple_rep(HALF, 1, WINDOW)
    assert are_isomorphic(m, m)
    assert not are_isomorphic(m, tw)


def test_are_isomorphic_rejects_decomposable():
    ds = direct_sum(S1, S1)
    with pytest.raises(ValueError):
        are_isomorphic(ds.obj, S1)


def test_are_isomorphic_decomposable_second_argument():
    # equal slot dimensions, so the check reaches the Hom-basis search
    nonsplit = realize_extension(ext1_basis(S1, S2)[0])[0]
    split = direct_sum(S1, S2).obj
    assert total_dim(nonsplit) == total_dim(split)
    assert not is_indecomposable(split)[0]
    assert not are_isomorphic(nonsplit, split)
    # S1 is a summand of the split sum, so only the slot dimensions rule it out
    assert not are_isomorphic(S1, split)


def test_uniserial_simple_and_length_two():
    assert is_uniserial(S1, KRONECKER_FAMILY) == (True, ("1",))
    z = ideal_quotient_rep(euler_power(HALF, 3), WINDOW)
    ok, series = is_uniserial(z, weyl_family())
    assert ok
    assert series == ((str(HALF), 0),) * 3


def test_sub_and_quotient_reject_non_invariant_and_dependent_spans():
    z, _, _ = realize_extension(ext1_basis(S1, S2)[0])
    # node 1 carries the quotient S1; the nonsplit arrows leave its span
    top = {"1": [(ONE,)]}
    with pytest.raises(ValueError, match="not invariant"):
        abcat.sub_object(z, top)
    with pytest.raises(ValueError, match="not invariant"):
        abcat.quotient_object(z, top)
    with pytest.raises(ValueError, match="dependent"):
        abcat.quotient_object(z, {"2": [(ONE,), (ONE + ONE,)]})
    # the sub S2 itself is invariant, and both constructions accept it
    bottom = {"2": [(ONE,)]}
    assert total_dim(abcat.sub_object(z, bottom)[0]) == 1
    assert total_dim(abcat.quotient_object(z, bottom)[0]) == 1


# -- the three length-3 counterexample shapes ----------------------------------


def kronecker_double_extension():
    """Two non-isomorphic nonsplit extensions glued over their common sub."""
    u_cls, v_cls = ext1_basis(S1, S2)
    u_obj, u_inj, _ = realize_extension(u_cls)
    v_obj, v_inj, _ = realize_extension(v_cls)
    assert not are_isomorphic(u_obj, v_obj)
    ds = direct_sum(u_obj, v_obj)
    diag = (ds.inj1 * u_inj) + (ds.inj2 * v_inj)
    spaces = {
        s: abcat.column_space_basis(diag.mats[s].columns(), ds.obj.slot_dim(s)) for s in ds.obj.slot_ids()
    }
    return abcat.quotient_object(ds.obj, spaces)[0]


def test_double_arrow_gives_indecomposable_non_uniserial():
    x = kronecker_double_extension()
    assert total_dim(x) == 3
    ok, _ = is_indecomposable(x)
    assert ok
    uni, _ = is_uniserial(x, KRONECKER_FAMILY)
    assert not uni
    soc = socle(x, KRONECKER_FAMILY)
    assert sum(c for _, c in soc.multiplicities) == 1


FAN_OUT = QuiverPresentation(["u", "s", "t"], [("a", "u", "s"), ("b", "u", "t")])
FAN_IN = QuiverPresentation(["s", "t", "u"], [("a", "s", "u"), ("b", "t", "u")])


def test_fan_out_pullback_two_minimal_subobjects():
    su = simple_at(FAN_OUT, "u")
    ss = simple_at(FAN_OUT, "s")
    st = simple_at(FAN_OUT, "t")
    family = (("s", ss), ("t", st), ("u", su))
    (xi1,) = ext1_basis(su, ss)
    (xi2,) = ext1_basis(su, st)
    e1, _, g1 = realize_extension(xi1)
    e2, _, g2 = realize_extension(xi2)
    x, _, _ = fiber_product(g1, g2)
    assert total_dim(x) == 3
    ok, _ = is_indecomposable(x)
    assert ok
    soc = socle(x, family)
    assert dict(soc.multiplicities) == {"s": 1, "t": 1, "u": 0}


def test_fan_in_pushout_two_composition_series():
    su = simple_at(FAN_IN, "u")
    ss = simple_at(FAN_IN, "s")
    st = simple_at(FAN_IN, "t")
    family = (("u", su), ("s", ss), ("t", st))
    (xi1,) = ext1_basis(ss, su)
    (xi2,) = ext1_basis(st, su)
    e1, f1, _ = realize_extension(xi1)
    e2, f2, _ = realize_extension(xi2)
    x, i1, i2 = amalgamated_sum(f1, f2)
    assert total_dim(x) == 3
    ok, _ = is_indecomposable(x)
    assert ok
    uni, _ = is_uniserial(x, family)
    assert not uni
    # the two middle terms embed with distinct images: two composition series
    im1, _ = image(i1)
    im2, _ = image(i2)
    sub1 = {s: i1.mats[s].columns() for s in x.slot_ids()}
    sub2 = {s: i2.mats[s].columns() for s in x.slot_ids()}
    canon1 = {s: abcat.column_space_basis(sub1[s], x.slot_dim(s)) for s in x.slot_ids()}
    canon2 = {s: abcat.column_space_basis(sub2[s], x.slot_dim(s)) for s in x.slot_ids()}
    assert canon1 != canon2
    assert total_dim(im1) == 2 and total_dim(im2) == 2


def random_hereditary_pairs():
    """Eight seeded (nodes, arrows, x, y): two random representations of a
    random quiver without relations, dimensions 0..2 per node."""
    rng = random.Random(41)
    for trial in range(8):
        nodes = [str(i) for i in range(1, rng.randint(2, 4) + 1)]
        arrows = []
        for k in range(rng.randint(1, 4)):
            arrows.append(("a%d" % k, rng.choice(nodes), rng.choice(nodes)))
        pres = QuiverPresentation(nodes, arrows)

        def random_rep():
            dims = {v: rng.randint(0, 2) for v in nodes}
            mats = {}
            for a, s, t in arrows:
                mats[a] = Matrix(
                    dims[t], dims[s], [[Scalar(rng.randint(-2, 2)) for _ in range(dims[s])] for _ in range(dims[t])]
                )
            return QuiverRep(pres, dims, mats)

        x = random_rep()
        y = random_rep()
        yield nodes, arrows, x, y


def test_euler_form_identity_on_random_hereditary_quivers():
    # with no relations, dim Hom(x, y) - dim Ext1(x, y) equals the bilinear
    # form sum_v dx_v dy_v - sum_arrows dx_src dy_tgt: an independent check
    # of the whole intertwiner/cocycle machinery
    for trial, (nodes, arrows, x, y) in enumerate(random_hereditary_pairs()):
        form = sum(x.dims[v] * y.dims[v] for v in nodes) - sum(x.dims[s] * y.dims[t] for _, s, t in arrows)
        hom_dim = len(hom_basis(x, y))
        ext_dim = ExtSpace(x, y).dim()
        assert hom_dim - ext_dim == form, (trial, hom_dim, ext_dim, form)


# -- Ext dimension by dim Z - dim B ---------------------------------------------


def _dim_matches_class_basis(x, y):
    space = ExtSpace(x, y)
    d = space.dim()
    h = space.hom_dim()
    # both dimensions are two ranks; Z, B and the class basis wait for a caller
    assert not {"_cocycles", "cobounds", "reps"} & set(vars(space))
    assert d == len(space.basis())
    assert d == len(space._cocycles) - len(space.cobounds)
    assert h == space.nslots - len(space.cobounds)
    return d


def test_ext_dim_by_rank_matches_class_basis_on_hereditary_quivers():
    for _, _, x, y in random_hereditary_pairs():
        for a, b in ((x, y), (y, x), (x, x)):
            _dim_matches_class_basis(a, b)


@pytest.mark.parametrize("window", [(-8, 8), (-10, 10)])
def test_ext_dim_by_rank_matches_class_basis_on_weyl_table(window):
    bases = [HALF, parse_scalar("1/3+1/2*i"), "0", "inf"]
    sources = weyl_simple_family(bases, [0], window)
    targets = weyl_simple_family(bases, range(-2, 3), window)
    dims = [_dim_matches_class_basis(a, b) for _, a in sources for _, b in targets]
    assert sum(dims) == 4


def test_ext_dim_by_rank_matches_class_basis_under_a_monomial_relation():
    # k[x]/(x^2): the relation constrains the cocycles of every pair with the
    # free module, which is projective and injective, so both its Ext rows vanish
    loop = QuiverPresentation(["1"], [("x", "1", "1")], [("1", "1", ((ONE, ("x", "x")),))])
    simple = QuiverRep(loop, {"1": 1}, {"x": Matrix(1, 1, [[ZERO]])})
    free = QuiverRep(loop, {"1": 2}, {"x": Matrix(2, 2, [[ZERO, ZERO], [ONE, ZERO]])})
    pair = QuiverRep(loop, {"1": 2}, {"x": Matrix(2, 2, [[ZERO, ZERO], [ZERO, ZERO]])})
    objs = {"S": simple, "F": free, "S+S": pair}
    got = {(a, b): _dim_matches_class_basis(objs[a], objs[b]) for a in objs for b in objs}
    assert got == {
        ("S", "S"): 1, ("S", "F"): 0, ("S", "S+S"): 2,
        ("F", "S"): 0, ("F", "F"): 0, ("F", "S+S"): 0,
        ("S+S", "S"): 2, ("S+S", "F"): 0, ("S+S", "S+S"): 4,
    }


# -- one differential against the three builders it replaced -------------------


def reference_hom_basis(x, y):
    """Hom(x, y) from the intertwining constraint rows, built directly."""
    index = {}
    for s in x.slot_ids():
        for i in range(y.slot_dim(s)):
            for j in range(x.slot_dim(s)):
                index[(s, i, j)] = len(index)
    nvars = len(index)
    rows = []
    for e in x.edge_ids():
        u, v = x.edge_ends(e)
        xe = x.edge_matrix(e)
        ye = y.edge_matrix(e)
        for i in range(y.slot_dim(v)):
            for j in range(x.slot_dim(u)):
                row = [ZERO] * nvars
                for k in range(x.slot_dim(v)):
                    c = xe[k, j]
                    if c:
                        row[index[(v, i, k)]] = row[index[(v, i, k)]] + c
                for k in range(y.slot_dim(u)):
                    c = ye[i, k]
                    if c:
                        row[index[(u, k, j)]] = row[index[(u, k, j)]] - c
                if any(row):
                    rows.append(row)
    out = []
    for vec in abcat.kernel_basis(Matrix(len(rows), nvars, rows)):
        mats = {}
        for s in x.slot_ids():
            dy, dx = y.slot_dim(s), x.slot_dim(s)
            mats[s] = Matrix(dy, dx, [[vec[index[(s, i, j)]] for j in range(dx)] for i in range(dy)])
        out.append(Morphism(x, y, mats, check=False))
    return out


def reference_cocycles_and_coboundaries(x, y):
    """(Z, B) from a cell-by-cell relation linearization and one conjugation
    vector per unit slot map."""
    index = {}
    for e in x.edge_ids():
        u, v = x.edge_ends(e)
        for i in range(y.slot_dim(v)):
            for j in range(x.slot_dim(u)):
                index[(e, i, j)] = len(index)
    nvars = len(index)
    rows = []
    for (u, v, terms) in x.relations():
        dxu = x.slot_dim(u)
        dyv = y.slot_dim(v)
        if not dxu or not dyv:
            continue
        cells = [[{} for _ in range(dxu)] for _ in range(dyv)]
        for coef, path in terms:
            for pos, edge in enumerate(path):
                pre = Matrix.identity(dxu)
                for name in path[:pos]:
                    pre = x.edge_matrix(name) * pre
                suf = Matrix.identity(y.slot_dim(x.edge_ends(edge)[1]))
                for name in path[pos + 1 :]:
                    suf = y.edge_matrix(name) * suf
                for i in range(dyv):
                    for j in range(dxu):
                        for r in range(suf.cols):
                            sc = suf[i, r]
                            if not sc:
                                continue
                            for c in range(pre.rows):
                                pc = pre[c, j]
                                if pc:
                                    key = index[(edge, r, c)]
                                    cell = cells[i][j]
                                    cell[key] = cell.get(key, ZERO) + coef * sc * pc
        for i in range(dyv):
            for j in range(dxu):
                row = [ZERO] * nvars
                for k, c in cells[i][j].items():
                    row[k] = c
                if any(row):
                    rows.append(row)
    cocycles = abcat.kernel_basis(Matrix(len(rows), nvars, rows))
    cobounds = []
    for s in x.slot_ids():
        for i in range(y.slot_dim(s)):
            for j in range(x.slot_dim(s)):
                vec = [ZERO] * nvars
                for e in x.edge_ids():
                    u, v = x.edge_ends(e)
                    if u == s:
                        ye = y.edge_matrix(e)
                        for r in range(ye.rows):
                            c = ye[r, i]
                            if c:
                                vec[index[(e, r, j)]] = vec[index[(e, r, j)]] - c
                    if v == s:
                        xe = x.edge_matrix(e)
                        for cidx in range(xe.cols):
                            c = xe[j, cidx]
                            if c:
                                vec[index[(e, i, cidx)]] = vec[index[(e, i, cidx)]] + c
                if any(vec):
                    cobounds.append(tuple(vec))
    return cocycles, abcat.column_space_basis(cobounds, nvars)


def _matches_reference_builders(x, y):
    homs = hom_basis(x, y)
    assert homs == reference_hom_basis(x, y)
    space = ExtSpace(x, y)
    assert (space._cocycles, space.cobounds) == reference_cocycles_and_coboundaries(x, y)
    assert space.hom_dim() == len(homs)
    return len(homs), space.dim()


def loop_objects():
    """k[x]/(x^2): the simple S, the free module F and S + S."""
    loop = QuiverPresentation(["1"], [("x", "1", "1")], [("1", "1", ((ONE, ("x", "x")),))])
    return [
        QuiverRep(loop, {"1": 1}, {"x": Matrix(1, 1, [[ZERO]])}),
        QuiverRep(loop, {"1": 2}, {"x": Matrix(2, 2, [[ZERO, ZERO], [ONE, ZERO]])}),
        QuiverRep(loop, {"1": 2}, {"x": Matrix(2, 2, [[ZERO, ZERO], [ZERO, ZERO]])}),
    ]


def idempotent_objects():
    """k[x]/(x^2 - x): both positions of x.x and the term x hit one unknown
    when x has a nonzero diagonal, so the relation rows must add them up."""
    loop = QuiverPresentation(["1"], [("x", "1", "1")], [("1", "1", ((ONE, ("x", "x")), (-ONE, ("x",))))])
    return [
        QuiverRep(loop, {"1": 1}, {"x": Matrix(1, 1, [[ZERO]])}),
        QuiverRep(loop, {"1": 1}, {"x": Matrix(1, 1, [[ONE]])}),
        QuiverRep(loop, {"1": 2}, {"x": Matrix(2, 2, [[ONE, ZERO], [ONE, ZERO]])}),
    ]


SQUARE = "specfile quiver v1\nnode 1\nnode 2\nnode 3\nnode 4\narrow a 1 2\narrow b 2 4\narrow c 1 3\narrow d 3 4\nrelation a.b - c.d\n"


def square_objects(text=SQUARE):
    """Representations of the commutative square: the simples, the thin
    module with a.b = c.d = 6, a module two-dimensional at 1, and the
    module M on 2, 3, 4 with b = d = 1."""
    pres, _ = parse_presentation(text)
    s = Scalar
    return [simple_at(pres, n) for n in pres.nodes] + [
        QuiverRep(pres, dict.fromkeys(pres.nodes, 1), {
            "a": Matrix(1, 1, [[s(2)]]), "b": Matrix(1, 1, [[s(3)]]),
            "c": Matrix(1, 1, [[s(1)]]), "d": Matrix(1, 1, [[s(6)]]),
        }),
        QuiverRep(pres, {"1": 2, "2": 1, "3": 1, "4": 1}, {
            "a": Matrix(1, 2, [[ONE, s(2)]]), "b": Matrix(1, 1, [[s(2)]]),
            "c": Matrix(1, 2, [[s(2), s(4)]]), "d": Matrix(1, 1, [[ONE]]),
        }),
        QuiverRep(pres, {"2": 1, "3": 1, "4": 1}, {"b": Matrix(1, 1, [[ONE]]), "d": Matrix(1, 1, [[ONE]])}),
    ]


def test_differential_matches_reference_builders_on_hereditary_quivers():
    for _, _, x, y in random_hereditary_pairs():
        for a, b in ((x, y), (y, x), (x, x)):
            _matches_reference_builders(a, b)


def test_differential_matches_reference_builders_on_weyl_table():
    bases = [HALF, parse_scalar("1/3+1/2*i"), "0", "inf"]
    sources = weyl_simple_family(bases, [0], (-8, 8))
    targets = weyl_simple_family(bases, range(-2, 3), (-8, 8))
    dims = [_matches_reference_builders(a, b) for _, a in sources for _, b in targets]
    assert sum(h for h, _ in dims) == 4 and sum(e for _, e in dims) == 4


A4_CHAIN = QuiverPresentation(
    ["1", "2", "3", "4"],
    [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
    [("1", "4", ((ONE, ("a", "b", "c")),))],
)


def chain_objects():
    """Representations of the A4 chain with c.b.a = 0: the four simples and
    six seeded ones with non-square maps, c drawn from the left kernel of b.a,
    so the relation path of length 3 has a real prefix and suffix product."""
    rng = random.Random(43)

    def draw(rows, cols):
        return Matrix(rows, cols, [[Scalar(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)])

    objs = [simple_at(A4_CHAIN, n) for n in A4_CHAIN.nodes]
    for dims in ((1, 2, 3, 2), (2, 1, 2, 2), (2, 3, 3, 1), (1, 1, 2, 2), (3, 2, 2, 2), (2, 3, 2, 1)):
        a, b = draw(dims[1], dims[0]), draw(dims[2], dims[1])
        left = Matrix.from_columns(abcat.kernel_basis((b * a).transpose()), dims[2]).transpose()
        c = draw(dims[3], left.rows) * left
        objs.append(QuiverRep(A4_CHAIN, dict(zip(A4_CHAIN.nodes, dims)), {"a": a, "b": b, "c": c}))
    return objs


def test_differential_matches_reference_builders_under_relations():
    for objs in (loop_objects(), idempotent_objects(), square_objects(), chain_objects()):
        for a in objs:
            for b in objs:
                _matches_reference_builders(a, b)
    # the relation ties the two corrections of 0 -> M -> E -> S_1 -> 0
    # together: c_a - c_c = 0 leaves one class where the bare square has two
    square = square_objects()
    bare = square_objects(SQUARE.replace("relation a.b - c.d\n", ""))
    assert ExtSpace(square[0], square[-1]).dim() == 1 and ExtSpace(bare[0], bare[-1]).dim() == 2
    # the chain relation cuts the cocycles of some pairs
    chain = chain_objects()
    assert any(len(space._cocycles) < space.nvars for space in (ExtSpace(a, b) for a in chain for b in chain))


def test_ext_dimensions_build_no_vectors_and_no_rref(monkeypatch):
    objs = chain_objects()

    def refuse(*args):
        raise AssertionError("dimensions must not call this")

    monkeypatch.setattr(abcat, "kernel_basis", refuse)
    monkeypatch.setattr(abcat, "column_space_basis", refuse)
    monkeypatch.setattr(linalg, "_rref_rows", refuse)
    monkeypatch.setattr(Matrix, "identity", refuse)
    dims = [(ExtSpace(a, b).dim(), ExtSpace(a, b).hom_dim()) for a in objs for b in objs]
    monkeypatch.undo()
    assert dims == [(_dim_matches_class_basis(a, b), len(hom_basis(a, b))) for a in objs for b in objs]


def test_species_of_asks_no_hom_basis(monkeypatch):
    calls = []
    real = abcat.hom_basis

    def counted(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(abcat, "hom_basis", counted)
    s = species_of(weyl_family())
    assert calls == [] and len(s.labels) == 3


# -- certificates against the radical-basis construction ----------------------


def _end_block(x, y, mats, rows_in_y, cols_in_y):
    """Per-slot matrices placed as one block of a dense End(x + y) matrix,
    with the x and y parts of each slot side by side."""
    n = total_dim(x) + total_dim(y)
    data = [[ZERO] * n for _ in range(n)]
    off = 0
    for s in x.slot_ids():
        r0 = off + (x.slot_dim(s) if rows_in_y else 0)
        c0 = off + (x.slot_dim(s) if cols_in_y else 0)
        m = mats[s]
        for i in range(m.rows):
            for j in range(m.cols):
                data[r0 + i][c0 + j] = m[i, j]
        off += x.slot_dim(s) + y.slot_dim(s)
    return Matrix(n, n, data)


def radical_end_dims(x):
    """(dim End, dim rad End) from a radical basis of End(x) as dense matrices."""
    zero = zero_like(x)
    big = [_end_block(x, zero, f.mats, False, False) for f in hom_basis(x, x)]
    return len(big), len(algebra_radical(big))


def radical_isomorphic(x, y):
    """Isomorphism of indecomposables from dim End(x + y)/rad: 4 iff x = y."""
    big = [_end_block(x, y, f.mats, False, False) for f in hom_basis(x, x)]
    big += [_end_block(x, y, f.mats, True, True) for f in hom_basis(y, y)]
    big += [_end_block(x, y, f.mats, True, False) for f in hom_basis(x, y)]
    big += [_end_block(x, y, f.mats, False, True) for f in hom_basis(y, x)]
    q = len(big) - len(algebra_radical(big))
    assert q in (2, 4), q
    return q == 4


def random_invertible(d, rng):
    """A random invertible d x d matrix, entries -2..2."""
    while True:
        m = Matrix(d, d, [[Scalar(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)])
        if inverse(m) is not None:
            return m


def random_basis_change(obj, rng):
    """obj conjugated by random invertible per-slot matrices, entries -2..2."""
    return change_basis(obj, {s: random_invertible(obj.slot_dim(s), rng) for s in obj.slot_ids()})


def test_trace_pairing_matches_radical_basis():
    rng = random.Random(5)
    groups = []
    for _, _, x, y in random_hereditary_pairs():
        groups.append([x, y, random_basis_change(x, rng), random_basis_change(y, rng)])
    u_cls, v_cls = ext1_basis(S1, S2)
    groups.append([S1, S2, realize_extension(u_cls)[0], realize_extension(v_cls)[0], kronecker_double_extension()])
    m = simple_rep(HALF, 0, WINDOW)
    e2 = ideal_quotient_rep(euler_power(HALF, 2), WINDOW)
    # a basis change whose first Hom(e2, late) basis map is nilpotent, so the
    # search must go past it
    late = random_basis_change(e2, random.Random(36))
    assert any(inverse(a) is None for a in hom_basis(e2, late)[0].mats.values())
    groups.append(
        [
            m,
            simple_rep(HALF, 1, WINDOW),
            e2,
            random_basis_change(e2, rng),
            late,
            realize_extension(ext1_basis(m, m)[0])[0],
            direct_sum(m, m).obj,
        ]
    )
    verdicts = {True: 0, False: 0}
    for group in groups:
        indecomposables = []
        decomposables = []
        for x in group:
            if total_dim(x) == 0:
                continue
            cert = radical_end_dims(x)
            assert abcat.end_algebra_dims(x) == cert
            ok, got = is_indecomposable(x)
            assert got == cert and ok == (cert[0] - cert[1] == 1)
            if ok:
                indecomposables.append(x)
            else:
                decomposables.append(x)
                with pytest.raises(ValueError):
                    are_isomorphic(x, x)
        for x in indecomposables:
            for y in indecomposables + decomposables:
                same = are_isomorphic(x, y)
                assert same == (y in indecomposables and radical_isomorphic(x, y))
                if same:
                    iso = abcat.find_isomorphism(x, y)
                    Morphism(x, y, iso.mats, check=True)
                    assert all(a.rows == a.cols and inverse(a) is not None for a in iso.mats.values())
                verdicts[same] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


def peel_by_socle(x, family):
    """is_uniserial by the public socle: each stage's socle must be simple,
    then the stage is divided by it."""
    series = []
    current = x
    while total_dim(current):
        soc = socle(current, family)
        labels = [label for label, count in soc.multiplicities for _ in range(count)]
        if not labels:
            raise abcat.NotFiniteLengthError("no simple subobject")
        if len(labels) > 1:
            return False, None
        series.append(labels[0])
        spaces = {s: soc.inclusion.mats[s].columns() for s in current.slot_ids()}
        current, _ = abcat.quotient_object(current, spaces)
    return True, tuple(reversed(series))


def _outcome(peel, x, family):
    try:
        return peel(x, family)
    except abcat.NotFiniteLengthError:
        return "not finite length"


def test_peeling_loop_matches_socle_peeling():
    cases = []
    for nodes, _, x, y in random_hereditary_pairs():
        family = tuple((v, simple_at(x.pres, v)) for v in nodes)
        cases += [(x, family), (y, family)]
    u_cls, v_cls = ext1_basis(S1, S2)
    for x in (S1, S2, realize_extension(u_cls)[0], realize_extension(v_cls)[0], kronecker_double_extension(),
              direct_sum(S1, S2).obj):
        cases.append((x, KRONECKER_FAMILY))
    from uniserial.weyl import alternating_word

    m = simple_rep(HALF, 0, WINDOW)
    for x in (
        m,
        ideal_quotient_rep(euler_power(HALF, 2), WINDOW),
        ideal_quotient_rep(euler_power(HALF, 3), WINDOW),
        realize_extension(ext1_basis(m, m)[0])[0],
        direct_sum(m, m).obj,
        ideal_quotient_rep(alternating_word("0", 3), WINDOW),
        ideal_quotient_rep(alternating_word("inf", 3), WINDOW),
    ):
        cases.append((x, weyl_family()))
    seen = {True: 0, False: 0, "not finite length": 0}
    for x, family in cases:
        want = _outcome(peel_by_socle, x, family)
        assert _outcome(is_uniserial, x, family) == want
        verdict = want if isinstance(want, str) else want[0]
        seen[verdict] += 1
        try:
            series = composition_series(x, family)
        except abcat.NotFiniteLengthError:
            assert verdict is not True
            continue
        if verdict is True:
            assert series.factors == want[1]
        # every step peels the first basis map of the first simple that maps in
        for step in series.steps:
            label = next(lbl for lbl, count in socle(step.stage, family).multiplicities if count)
            assert step.label == label
            assert step.mono == hom_basis(dict(family)[label], step.stage)[0]
    assert all(seen.values()), seen


def test_composition_series_multiset_independent_of_family_order():
    from uniserial.weyl import alternating_word

    fam = weyl_family()
    # the word-0 quotient keeps its factors at twist 0; the word-inf one
    # sits at twist +1 and is invisible to a twist-0 family by design
    z = ideal_quotient_rep(alternating_word("0", 3), WINDOW)
    forward = composition_series(z, fam)
    backward = composition_series(z, tuple(reversed(fam)))
    assert forward.multiplicities() == backward.multiplicities()
    assert len(forward.factors) == len(backward.factors) == 3
    shifted = ideal_quotient_rep(alternating_word("inf", 3), WINDOW)
    with pytest.raises(abcat.NotFiniteLengthError):
        composition_series(shifted, fam)


def test_composition_series_zero_object_empty():
    cs = composition_series(zero_like(S1), KRONECKER_FAMILY)
    assert cs.factors == ()


def test_composition_series_needs_covering_family():
    from uniserial.abcat import NotFiniteLengthError

    m = simple_rep(HALF, 0, WINDOW)
    wrong_family = ((("0", 0), simple_rep("0", 0, WINDOW)),)
    with pytest.raises(NotFiniteLengthError):
        composition_series(m, wrong_family)


def test_uniserial_implies_indecomposable_on_sampled_objects():
    fam = weyl_family()
    samples = [
        simple_rep(HALF, 0, WINDOW),
        ideal_quotient_rep(euler_power(HALF, 2), WINDOW),
        ideal_quotient_rep(euler_power(HALF, 3), WINDOW),
        direct_sum(simple_rep(HALF, 0, WINDOW), simple_rep(HALF, 0, WINDOW)).obj,
    ]
    for x in samples:
        uni, _ = is_uniserial(x, fam)
        if uni:
            ok, _ = is_indecomposable(x)
            assert ok


# -- exactness bookkeeping ------------------------------------------------------


def test_kernel_image_and_length_additivity():
    rng = random.Random(23)
    fam = weyl_family()
    a = simple_rep(HALF, 0, WINDOW)
    b = ideal_quotient_rep(euler_power(HALF, 2), WINDOW)
    for x, y in [(a, a), (b, a), (a, b)]:
        for cls in ext1_basis(x, y):
            z, inj, surj = realize_extension(cls)
            ker, _ = kernel(surj)
            assert total_dim(ker) == total_dim(y)
            cs_z = composition_series(z, fam)
            cs_x = composition_series(x, fam)
            cs_y = composition_series(y, fam)
            assert len(cs_z.factors) == len(cs_x.factors) + len(cs_y.factors)
            mz = cs_z.multiplicities()
            for k in set(mz) | set(cs_x.multiplicities()) | set(cs_y.multiplicities()):
                assert mz.get(k, 0) == cs_x.multiplicities().get(k, 0) + cs_y.multiplicities().get(k, 0)


# -- fast paths against the plain paths they replace -----------------------------


def extension_pairs():
    """(x, y) pairs on both backends, with Ext^1(x, y) of dimension 0, 1 and 2."""
    m = simple_rep(HALF, 0, WINDOW)
    e2 = ideal_quotient_rep(euler_power(HALF, 2), WINDOW)
    s0, sinf = simple_rep("0", 0, WINDOW), simple_rep("inf", 0, WINDOW)
    graded = [(m, m), (e2, m), (m, e2), (s0, sinf), (sinf, s0), (m, s0)]
    quiver = [(S1, S2), (S2, S1)] + [(x, y) for _, _, x, y in random_hereditary_pairs()]
    return graded + quiver


def test_tower_rank_verdict_matches_extract_class():
    # the class of a sequence is zero iff its cocycle is a coboundary, i.e.
    # iff appending it to δ⁰ keeps the rank; the middle object is conjugated
    # by a random basis change so the splitting is not the standard one
    rng = random.Random(31)
    dims = set()
    for x, y in extension_pairs():
        space = ExtSpace(x, y)
        d = space.dim()
        dims.add(d)
        draws = [tuple([ZERO] * d)] + [tuple(Scalar(rng.randint(-2, 2)) for _ in range(d)) for _ in range(3)]
        for coords in draws:
            z, inj, surj = realize_extension(space.class_from_coords(coords))
            us = {s: random_invertible(z.slot_dim(s), rng) for s in z.slot_ids()}
            z2 = change_basis(z, us)
            inj2 = Morphism(y, z2, {s: us[s] * inj.mats[s] for s in y.slot_ids()})
            surj2 = Morphism(z2, x, {s: surj.mats[s] * inverse(us[s]) for s in x.slot_ids()})
            plain = extract_class(inj2, surj2)
            assert plain.coords == coords
            space2, vec = abcat._extension_cocycle(inj2, surj2)
            assert vec == plain.vector
            assert (space2.augmented_rank(vec) > space2._rank_d0) == (not plain.is_zero()) == any(coords)
    assert dims == {0, 1, 2}


def _quotient_outcome(build, x, spaces):
    """(quotient object, projection matrices), or the ValueError message."""
    try:
        quot, proj = build(x, spaces)
    except ValueError as exc:
        return str(exc)
    return quot, proj.mats


def random_combination(maps, rng):
    """A random linear combination of a nonempty list of morphisms, the first with a nonzero coefficient."""
    out = maps[0].scale(Scalar(rng.randint(1, 2)))
    for phi in maps[1:]:
        out = out + phi.scale(Scalar(rng.randint(-2, 2)))
    return out


def quotient_cases(rng):
    """(object, per-slot columns) pairs: images of random endomorphisms and of
    maps from the simples, socles, the zero and the whole subspace, each in a
    randomly mixed basis; then random spans, a repeated column and a column
    too many, which both constructions must answer alike."""
    from uniserial.weyl import alternating_word

    objects = [(x, KRONECKER_FAMILY) for x in (kronecker_double_extension(), direct_sum(S1, S2).obj)]
    objects += [(realize_extension(cls)[0], KRONECKER_FAMILY) for cls in ext1_basis(S1, S2)]
    for nodes, _, x, y in random_hereditary_pairs():
        family = tuple((v, simple_at(x.pres, v)) for v in nodes)
        objects += [(x, family), (y, family)]
    for p in (euler_power(HALF, 2), euler_power(HALF, 3), alternating_word("0", 3)):
        objects.append((ideal_quotient_rep(p, WINDOW), weyl_family()))
    m = simple_rep(HALF, 0, WINDOW)
    objects.append((direct_sum(m, realize_extension(ext1_basis(m, m)[0])[0]).obj, weyl_family()))
    for x, family in objects:
        slots = x.slot_ids()
        maps = [hom_basis(x, x)] + [hom_basis(simple, x) for _, simple in family]
        spans = [random_combination(f, rng).mats for f in maps if f]
        spans += [socle(x, family).inclusion.mats, {}, identity_morphism(x).mats]
        for span in spans:
            spaces = {}
            for s in slots:
                d = x.slot_dim(s)
                cols = abcat.column_space_basis(span[s].columns() if s in span else (), d)
                # a random basis of the same span, so the columns are not in rref shape
                spaces[s] = (Matrix.from_columns(cols, d) * random_invertible(len(cols), rng)).columns()
            yield x, spaces
        for _ in range(3):
            spaces = {}
            for s in slots:
                d = x.slot_dim(s)
                spaces[s] = [tuple(Scalar(rng.randint(-1, 1)) for _ in range(d)) for _ in range(rng.randint(0, d))]
            yield x, spaces
        s = next((s for s in slots if x.slot_dim(s)), None)
        if s is not None:
            col = tuple(Scalar(rng.randint(1, 2)) for _ in range(x.slot_dim(s)))
            yield x, {s: [col, col]}
            yield x, {s: Matrix.identity(x.slot_dim(s)).columns() + [col]}


def test_quotient_object_matches_extend_basis_and_inverse():
    rng = random.Random(37)
    seen = {"ok": 0, "dependent": 0, "not invariant": 0}
    for x, spaces in quotient_cases(rng):
        want = _quotient_outcome(reference_quotient_object, x, spaces)
        assert _quotient_outcome(abcat.quotient_object, x, spaces) == want
        if isinstance(want, str):
            seen["dependent" if "dependent" in want else "not invariant"] += 1
        else:
            seen["ok"] += 1
    assert min(seen.values()) >= 10, seen
