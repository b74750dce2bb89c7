"""The prescribed-cycle construction and the circulation/certificate engine."""

import random

import pytest

from surfcolor import chains, circulation, homology, surface_map
from surfcolor.chains import Chain1, pair, pair_plus
from surfcolor.circulation import Certificate, Circulation, HomologyTarget
from surfcolor.cli import gen_bouquet, gen_grid

from conftest import brute_feasible, random_map, random_nowhere_zero


def _target(m, basis, a, S, x, a_prime):
    cps = homology.copaths_from(m, x, S)
    return HomologyTarget(a, S, x, cps, a_prime)


def test_a_target_refuses_a_face_of_s_without_a_copath_or_a_label():
    # on the dual of the 3x3 grid, a target whose copaths miss face 4 of S
    # once reached the engine and ended in a bare KeyError, and copaths
    # without x in a KeyError of the constructor
    g = surface_map.dual(gen_grid(3, 3))
    cps = homology.copaths_from(g, 0, (0, 4))
    with pytest.raises(ValueError, match="^no copath to face 4 of S$"):
        HomologyTarget((0, 0), (0, 4), 0, homology.copaths_from(g, 0, (0,)), {0: 0})
    with pytest.raises(ValueError, match="^no copath to face 0 of S$"):
        HomologyTarget((0, 0), (0, 4), 0, {4: cps[4]}, {0: 0, 4: 0})
    with pytest.raises(ValueError, match="^no a_prime at face 4 of S$"):
        HomologyTarget((0, 0), (0, 4), 0, cps, {0: 0})
    target = HomologyTarget((0, 0), (0, 4), 0, cps, {4: 0})
    assert target.a_prime == {0: 0, 4: 0}


def test_prescribed_cycle_zero():
    m = gen_bouquet(2)
    basis = homology.cohomology_basis(m)
    t = _target(m, basis, (0, 0), (0,), 0, {0: 0})
    assert circulation.prescribed_cycle(m, basis, t).is_zero()


def test_prescribed_cycle_doubles_loop():
    m = gen_bouquet(2)
    basis = homology.cohomology_basis(m)
    t = _target(m, basis, (2, 0), (0,), 0, {0: 0})
    b = circulation.prescribed_cycle(m, basis, t)
    assert b == Chain1(m, {0: 2})
    assert pair(b, basis.cocycles[0]) == 2


def test_prescribed_cycle_worked_combination():
    # an instance with pair(f_e2, P(y1)) = -1 and pair(f_e2, P(y2)) = 0,
    # where prescribing a = (0, 2), a'(y1) = a'(y2) = 1 forces the
    # combination b = 2 f_e2 + 3 d2(y1) + 1 d2(y2)
    m = gen_grid(3, 3)
    basis = homology.cohomology_basis(m)
    x, y1, y2 = 3, 6, 0
    cps = homology.copaths_from(m, x, [x, y1, y2])
    assert pair(basis.cycles[1], cps[y1]) == -1
    assert pair(basis.cycles[1], cps[y2]) == 0
    t = HomologyTarget((0, 2), (x, y1, y2), x, cps, {x: 0, y1: 1, y2: 1})
    b = circulation.prescribed_cycle(m, basis, t)
    expected = (
        2 * basis.cycles[1]
        + 3 * chains.face_boundary(m, y1)
        + chains.face_boundary(m, y2)
    )
    assert b == expected


def test_prescribed_cycle_contract(corpus_map):
    rng = random.Random(71)
    m = corpus_map
    basis = homology.cohomology_basis(m)
    for _ in range(10):
        x = rng.randrange(m.num_faces)
        S = sorted({x} | {rng.randrange(m.num_faces) for _ in range(2)})
        cps = homology.copaths_from(m, x, S)
        a = tuple(rng.randint(-2, 2) for _ in basis.Y)
        ap = {y: (0 if y == x else rng.randint(-2, 2)) for y in S}
        t = HomologyTarget(a, S, x, cps, ap)
        b = circulation.prescribed_cycle(m, basis, t)
        assert chains.is_cycle(b)
        for k, ai in zip(basis.cocycles, a):
            assert pair(b, k) == ai
        for y in S:
            assert pair(b, cps[y]) == ap[y]


def test_engine_bouquet_feasible():
    m = gen_bouquet(2)
    basis = homology.cohomology_basis(m)
    f = Chain1(m, {0: 1, 2: 1})
    res = circulation.circulation_or_certificate(
        m, basis, f, _target(m, basis, (1, 0), (0,), 0, {0: 0})
    )
    assert isinstance(res, Circulation)
    assert res.chain == Chain1(m, {0: 1})


def test_engine_bouquet_certificate():
    m = gen_bouquet(2)
    basis = homology.cohomology_basis(m)
    f = Chain1(m, {0: 1, 2: 1})
    res = circulation.circulation_or_certificate(
        m, basis, f, _target(m, basis, (2, 0), (0,), 0, {0: 0})
    )
    assert isinstance(res, Certificate)
    assert res.D.is_simple()
    assert res.lhs > res.rhs
    assert pair_plus(f, res.D) == res.rhs == 1
    assert res.lhs == 2


def _tamper(cert, **changes):
    fields = {k: getattr(cert, k) for k in Certificate.__slots__}
    fields.update(changes)
    return Certificate(**fields)


@pytest.mark.parametrize(
    "changes, message",
    [
        (lambda c: {"lhs": c.rhs}, "certificate inequality is not strict"),
        (lambda c: {"z": (c.z[0] + 1,) + tuple(c.z[1:])}, "certificate homology class mismatch"),
        (lambda c: {"y": c.y_prime, "y_prime": c.y}, "certificate endpoints do not match its coboundary"),
        (lambda c: {"D": 2 * c.D}, "certificate copath is not simple"),
    ],
    ids=["non-strict", "wrong-z", "wrong-endpoints", "not-simple"],
)
def test_tampered_certificates_raise(changes, message):
    # the checks raise AssertionError explicitly, so they hold under
    # python -O too, where assert statements are stripped
    m = gen_grid(3, 3)
    basis = homology.cohomology_basis(m)
    f = Chain1(m, {h: 1 for h in m.canonical_half_edges()})
    t = _target(m, basis, (0, 0), (0, 4), 0, {0: 0, 4: 2})
    cert = circulation.circulation_or_certificate(m, basis, f, t)
    assert isinstance(cert, Certificate) and (cert.y, cert.y_prime) == (0, 4)
    circulation.validate_certificate(m, basis, f, t, cert)
    with pytest.raises(AssertionError, match=message):
        circulation.validate_certificate(m, basis, f, t, _tamper(cert, **changes(cert)))


def test_engine_zero_target_on_nonnegative_f():
    m = gen_grid(3, 3)
    basis = homology.cohomology_basis(m)
    f = Chain1(m, {h: 1 for h in m.canonical_half_edges()})
    res = circulation.circulation_or_certificate(
        m, basis, f, _target(m, basis, (0, 0), (0,), 0, {0: 0})
    )
    assert isinstance(res, Circulation)
    assert res.chain.is_zero()


def test_engine_matches_bruteforce_on_random_maps():
    rng = random.Random(73)
    circulations = certificates = 0
    for _ in range(150):
        m = random_map(rng)
        basis = homology.cohomology_basis(m)
        f = random_nowhere_zero(rng, m)
        x = rng.randrange(m.num_faces)
        S = sorted({x} | {rng.randrange(m.num_faces) for _ in range(rng.randint(0, 2))})
        cps = homology.copaths_from(m, x, S)
        from surfcolor.lattice import pairing_bounds

        box, box_s = pairing_bounds(f, basis, cps)
        a = tuple(rng.randint(lo, hi) for lo, hi in box)
        ap = {y: (0 if y == x else rng.randint(*box_s[y])) for y in S}
        t = HomologyTarget(a, S, x, cps, ap)
        res = circulation.circulation_or_certificate(m, basis, f, t)
        got = isinstance(res, Circulation)
        assert got == brute_feasible(m, basis, f, t)
        if got:
            circulation.validate_circulation(m, basis, f, t, res)
            circulations += 1
        else:
            circulation.validate_certificate(m, basis, f, t, res)
            certificates += 1
    assert circulations > 20 and certificates > 20


def test_certificate_blocks_all_circulations():
    # certificate soundness: when a certificate exists, no circulation
    # attains the prescribed pairings; spot-check by brute force
    rng = random.Random(79)
    found = 0
    while found < 15:
        m = random_map(rng, max_edges=8)
        basis = homology.cohomology_basis(m)
        f = random_nowhere_zero(rng, m)
        x = rng.randrange(m.num_faces)
        cps = homology.copaths_from(m, x, [x])
        from surfcolor.lattice import pairing_bounds

        box, _ = pairing_bounds(f, basis, cps)
        a = tuple(hi + rng.randint(0, 1) for _, hi in box)
        t = HomologyTarget(a, (x,), x, cps, {x: 0})
        res = circulation.circulation_or_certificate(m, basis, f, t)
        if not isinstance(res, Certificate):
            continue
        assert not brute_feasible(m, basis, f, t)
        found += 1


def test_transplus_coset_subadditive_and_multiplicative():
    # brute-force the coset minimum over small potential shifts and check
    # subadditivity plus multiplicativity over cocycles
    import itertools

    rng = random.Random(83)
    checked = 0
    while checked < 10:
        m = random_map(rng, max_edges=6, max_vertices=3)
        if m.euler_genus == 0 or m.num_edges == 0:
            continue
        basis = homology.cohomology_basis(m)
        f = random_nowhere_zero(rng, m)

        def coset_min_at(k, window):
            best = None
            nv = m.num_vertices
            for t in itertools.product(range(-window, window + 1), repeat=nv - 1):
                pot = chains.Chain0(m, dict(enumerate((0,) + t)))
                val = pair_plus(f, k + chains.coboundary2(pot))
                if best is None or val < best:
                    best = val
            return best

        def coset_min(k, window):
            got = coset_min_at(k, window)
            assert got == coset_min_at(k, window + 1), "shift window too small"
            return got

        k1 = basis.cocycles[0]
        k2 = basis.cocycles[-1]
        v1 = coset_min(k1, 3)
        v2 = coset_min(k2, 3)
        v12 = coset_min(k1 + k2, 4)
        assert v12 <= v1 + v2
        for k_mult in (2, 3):
            assert coset_min(k_mult * k1, 4 * k_mult) == k_mult * v1
        checked += 1
