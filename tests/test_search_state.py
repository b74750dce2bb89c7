"""The per-search state of the lattice search: patched repair networks,
the kept cuts of failed layered passes, and the counts the benchmark's
traced run relies on; and the dominance check of a returned circulation,
which reads both orientations of each edge."""

import random
from fractions import Fraction

import pytest

from surfcolor import circulation, errors, flows, homology, lattice
from surfcolor.chains import Chain1, pair
from surfcolor.circulation import Circulation, HomologyTarget
from surfcolor.cli import brute_force_extendable, gen_bouquet
from surfcolor.lattice import (
    HomologyPoint,
    SearchState,
    integer_points_bruteforce,
    layered_residue_solve,
)
from surfcolor.solver import Precoloring, extend_precoloring

from conftest import CORPUS, random_map, random_nowhere_zero
from test_layered_residue import hexagon_instances, reference_search, two_step


def full_build(m, f, b):
    """The repair network built directly, one half-edge at a time."""
    out = [[] for _ in range(m.num_faces)]
    for h in m.half_edges():
        fh, bh = f[h], b[h]
        out[m.left[m.opp[h]]].append((m.left[h], fh - bh if fh > 0 else -bh, h))
    return out


def random_target(rng, m, basis, f, S, x, cps):
    box, box_s = lattice.pairing_bounds(f, basis, cps)
    a = tuple(rng.randint(lo - 2, hi + 2) for lo, hi in box)
    ap = {y: 0 if y == x else rng.randint(box_s[y][0] - 2, box_s[y][1] + 2) for y in S}
    return HomologyTarget(a, S, x, cps, ap)


def test_patched_network_equals_the_full_build():
    rng = random.Random(401)
    maps = [m for _, m in CORPUS] + [random_map(rng, max_edges=14) for _ in range(30)]
    checked = 0
    for m in maps:
        if m.num_edges == 0:
            continue
        basis = homology.cohomology_basis(m)
        f = Chain1(m, {h: rng.choice((-2, -1, 0, 1, 2)) for h in m.canonical_half_edges()})
        state = SearchState(m, basis, f)
        base = [list(arcs) for arcs in state.base[0]]
        for _ in range(6):
            x = rng.randrange(m.num_faces)
            S = tuple(sorted({x} | {rng.randrange(m.num_faces) for _ in range(rng.randint(0, 2))}))
            cps = homology.copaths_from(m, x, S)
            target = random_target(rng, m, basis, f, S, x, cps)
            b, out = state.network(target)
            assert b == circulation.prescribed_cycle(m, basis, target)
            assert out == full_build(m, f, b)
            assert circulation.repair_network(m, basis, f, target) == (b, out)
            # asking again at the same target gives the same network
            assert state.network(target) == (b, out)
            checked += 1
        # patching never writes into the shared base lists
        assert state.base[0] == base
    assert checked >= 200


def stateless_pass(*args):
    """The layered pass without a state: its labels, or None where it
    fails, whether it returns None or finds the anchor outside."""
    try:
        return layered_residue_solve(*args)
    except errors.AnchorOutsidePolytope:
        return None


def test_every_kept_cut_holds_where_the_stateless_pass_succeeds(monkeypatch):
    # cuts kept at outside anchors and at inside anchors both hold at
    # every box point of their search where a pass would return labels,
    # and at every brute-forced integer point with the search's residues
    first_point = {}
    kept_at = {"outside": 0, "inside": 0}
    real = lattice.layered_residue_solve

    def recorded(m, basis, f, a, S, x, copaths, mod, r, search=None):
        # no cut is kept before the first pass, so each search's first
        # box point is a pass
        first_point.setdefault(search, a)
        before = len(search.cuts)
        ell = real(m, basis, f, a, S, x, copaths, mod, r, search)
        if len(search.cuts) > before:
            point = HomologyPoint(a, {x: 0})
            alone = lattice.membership(m, basis, f, (x,), x, {x: copaths[x]}, point)
            kept_at["inside" if alone is None else "outside"] += 1
        return ell

    monkeypatch.setattr(lattice, "layered_residue_solve", recorded)
    cut_points = 0
    for g, pre in small_instances(300):
        cut_points += extend_precoloring(g, pre).points_cut
    for state, first in first_point.items():
        m, basis, f = state.map, state.basis, state.f
        S, x, cps, mod, r = state.residues
        # the search's box points are those congruent to its first one
        box, _ = lattice.pairing_bounds(f, basis, cps)
        for u in lattice.lex_box_points(box, [c % mod for c in first], mod):
            if stateless_pass(m, basis, f, u, S, x, cps, mod, r) is not None:
                for z, rhs in state.cuts:
                    assert sum(zi * ui for zi, ui in zip(z, u)) <= rhs
        s_order = sorted(S)
        for a, ap in integer_points_bruteforce(m, basis, f, S, x, cps):
            if all((ai - ci) % mod == 0 for ai, ci in zip(a, first)) and all(
                (v - r[y]) % mod == 0 for y, v in zip(s_order, ap)
            ):
                for z, rhs in state.cuts:
                    assert sum(zi * ai for zi, ai in zip(z, a)) <= rhs
    assert min(kept_at.values()) >= 20 and cut_points >= 100, (kept_at, cut_points)


def test_search_gives_the_same_results_without_its_state(monkeypatch):
    searches = []
    real = lattice.find_constrained_circulation

    def recorded(m, basis, f0, spec, S, x, copaths, stats=None):
        before = stats.points_tested
        res = real(m, basis, f0, spec, S, x, copaths, stats=stats)
        searches.append(((m, basis, f0, spec, S, x, copaths), res, stats.points_tested - before))
        return res

    monkeypatch.setattr(lattice, "find_constrained_circulation", recorded)
    cut = 0
    for g, pre in hexagon_instances():
        cut += extend_precoloring(g, pre).points_cut
    found = 0
    for args, res, tested in searches:
        alone, alone_tested = reference_search(*args)
        assert tested == alone_tested
        assert (res and res.chain) == (alone and alone.chain)
        found += res is not None
    assert found > 0 and cut > 0 and len(searches) > found


def layered_network(m, basis, f, a, S, x, copaths, mod, r):
    """The arcs of the layered pass at anchor a, node by node, and its k(y)."""
    target = HomologyTarget(a, (x,), x, {x: copaths[x]}, {x: 0})
    b, out = circulation.repair_network(m, basis, f, target)
    kept = {y: (r[y] - pair(b, copaths[y].chain)) % mod for y in S}
    return list(lattice._ResidueLayers(out, mod, kept)), kept


def test_the_layered_network_is_the_same_at_every_box_point_of_a_search(monkeypatch):
    # the lemma the residue cuts rest on: from one box point of a search
    # to another, only the base lengths move, each by a multiple of m
    searches = {}
    real = lattice.layered_residue_solve

    def recorded(m, basis, f, a, S, x, copaths, mod, r, search=None):
        searches.setdefault(search, (m, basis, f, a, S, x, copaths, mod, r))
        return real(m, basis, f, a, S, x, copaths, mod, r, search)

    monkeypatch.setattr(lattice, "layered_residue_solve", recorded)
    for g, pre in hexagon_instances():
        extend_precoloring(g, pre)
    pairs = {3: 0, 5: 0}
    for m, basis, f, a, S, x, cps, mod, r in searches.values():
        arcs, kept = layered_network(m, basis, f, a, S, x, cps, mod, r)
        box, _ = lattice.pairing_bounds(f, basis, cps)
        points = [u for u in lattice.lex_box_points(box, [ai % mod for ai in a], mod) if u != a]
        for u in points[:6]:
            arcs2, kept2 = layered_network(m, basis, f, u, S, x, cps, mod, r)
            assert kept2 == kept
            assert len(arcs2) == len(arcs)
            moved = 0
            for node, node2 in zip(arcs, arcs2):
                assert [(w, h) for w, _, h in node] == [(w, h) for w, _, h in node2]
                for (_, step, h), (_, step2, _) in zip(node, node2):
                    assert (step - step2) % mod == 0
                    assert h >= 0 or step == step2 == h
                    moved += step != step2
            assert moved > 0
            pairs[mod] += 1
    assert min(pairs.values()) >= 5, pairs


def small_instances(count):
    """Seeded loopless random maps of at most 12 edges with m in {3, 5, 7}
    and one to three precolored vertices."""
    rng = random.Random(7)
    made = 0
    while made < count:
        g = random_map(rng, max_edges=12, min_edges=8, max_vertices=8)
        if any(g.tgt[h] == g.tgt[g.opp[h]] for h in g.half_edges()):
            continue
        mod = rng.choice((3, 5, 7))
        size = rng.randint(1, min(3, g.num_vertices))
        made += 1
        yield g, Precoloring(mod, {v: rng.randrange(mod) for v in rng.sample(range(g.num_vertices), size)})


def residue_cut_instances():
    """The hexagon instances, then 1000 small random instances."""
    yield from hexagon_instances()
    yield from small_instances(1000)


def test_every_point_a_residue_cut_skips_fails_the_stateless_passes(monkeypatch):
    # every kept cut is a residue cut (z, P + D): at each point one
    # answers, the stateless pass and the two-step reference fail too
    skipped = []
    real = lattice.membership

    def recording(m, basis, f, S, x, copaths, point, search=None):
        before = search.stats.points_cut
        sep = real(m, basis, f, S, x, copaths, point, search)
        if search.stats.points_cut > before:
            skipped.append((search, tuple(int(c) for c in point.u)))
        return sep

    monkeypatch.setattr(lattice, "membership", recording)
    small = 0
    for g, pre in residue_cut_instances():
        before = len(skipped)
        res = extend_precoloring(g, pre)
        assert res.points_cut == len(skipped) - before
        for state, u in skipped[before:]:
            S, x, cps, mod, r = state.residues
            args = (state.map, state.basis, state.f, u, S, x, cps, mod, r)
            assert stateless_pass(*args) is None
            try:
                assert two_step(*args) is None
            except errors.AnchorOutsidePolytope:
                pass
        if res.points_cut and g.num_edges <= 12:
            assert res.extendable == brute_force_extendable(g, pre.m, pre.psi)
            small += 1
    assert len(skipped) >= 45 and small >= 5, (len(skipped), small)


def count_calls(monkeypatch, module, name, log):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        log.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_one_membership_call_per_point_and_one_realization_per_boundary(monkeypatch):
    for g, pre in hexagon_instances():
        log = []
        with monkeypatch.context() as mp:
            count_calls(mp, lattice, "membership", log)
            count_calls(mp, flows, "nowhere_zero_flow_with_boundary", log)
            res = extend_precoloring(g, pre)
        assert log.count("membership") == res.points_tested
        assert log.count("nowhere_zero_flow_with_boundary") == res.boundaries_tried


def test_each_tested_point_is_a_layered_pass_or_a_cut(monkeypatch):
    g, pre = list(hexagon_instances())[5]
    log = []
    count_calls(monkeypatch, lattice, "layered_residue_solve", log)
    count_calls(monkeypatch, circulation, "circulation_or_certificate", log)
    res = extend_precoloring(g, pre)
    passes = log.count("layered_residue_solve")
    assert res.points_tested == passes + res.points_cut
    # the engine runs only to extract a found circulation, and none is
    assert log.count("circulation_or_certificate") == 0
    assert (res.extendable, res.points_tested, passes, res.points_cut) == (False, 255, 58, 197)


@pytest.mark.parametrize(
    "f, c, bad",
    [
        ({0: -1}, {0: 1}, 1),   # f[1] = 1 but c[1] = -1
        ({0: -2}, {0: -3}, 1),  # c[1] = 3 exceeds f[1] = 2
        ({0: 0}, {0: -1}, 0),   # f = 0 leaves no room: both fail, 0 first
        ({0: 2}, {0: 3}, 0),    # the canonical orientation itself
    ],
)
def test_dominance_is_checked_on_both_orientations(f, c, bad):
    # a loop: every chain on it is a cycle, so dominance is what fails
    m = gen_bouquet(1)
    assert m.opp[0] == 1
    basis = homology.cohomology_basis(m)
    target = HomologyTarget((0,) * len(basis.Y), (0,), 0, homology.copaths_from(m, 0, (0,)), {0: 0})
    circ = Circulation(Chain1(m, c))
    with pytest.raises(AssertionError, match="dominance violated at half-edge %d$" % bad):
        circulation.validate_circulation(m, basis, Chain1(m, f), target, circ)


def test_a_search_builds_no_full_repair_network(monkeypatch):
    # the engine runs, the residue passes and the final extraction all
    # patch the search's one base network
    builds = []
    count_calls(monkeypatch, circulation, "repair_network", builds)
    found = sum(extend_precoloring(g, pre).extendable for g, pre in hexagon_instances())
    assert found > 0 and not builds
