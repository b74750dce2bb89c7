"""The per-search state of the lattice search: patched repair networks,
the layered network built on a search's first pass, the kept cuts of
failed layered passes and the cuts lifted from the solve's pool of their
walks, the circulation of the accepting pass, the one per-solve record that
every search of a solve reads, and the counts the benchmark's traced run
relies on; and the dominance check of a returned circulation, which
reads both orientations of each edge."""

import random
from fractions import Fraction

import pytest

from surfcolor import circulation, flows, homology, lattice
from surfcolor.chains import Chain1, pair
from surfcolor.circulation import Circulation, HomologyTarget
from surfcolor.cli import brute_force_extendable, gen_bouquet, gen_grid
from surfcolor.lattice import (
    HomologyPoint,
    SearchState,
    Separator,
    integer_points_bruteforce,
)
from surfcolor.solver import Precoloring, extend_precoloring
from surfcolor.surface_map import CombinatorialMap

from conftest import (
    CORPUS,
    DIFFERENTIAL_MAPS,
    backtrack_extendable,
    random_map,
    random_nowhere_zero,
    solve_record,
)
from residue_reference import AnchorOutsidePolytope
from test_layered_residue import (
    fresh_pass,
    hexagon_grid,
    hexagon_instances,
    layered_pass,
    nonadjacent_precoloring,
    reference_search,
    two_step,
)


def full_build(m, f, b):
    """The repair network built directly, one half-edge at a time, as
    (arcs, lengths)."""
    arcs = [[] for _ in range(m.num_faces)]
    lengths = []
    for h in m.half_edges():
        fh, bh = f[h], b[h]
        arcs[m.left[m.opp[h]]].append((m.left[h], h))
        lengths.append(fh - bh if fh > 0 else -bh)
    return arcs, lengths


def engine_network(m, basis, f, target):
    """The repair network of the circulation engine for the target, as
    (b, lengths): the prescribed cycle, patched into a fresh f-part."""
    b = circulation.prescribed_cycle(m, basis, target)
    return b, circulation.patched_network(m, circulation.base_network(m, f), b)


def states_with_f(monkeypatch):
    """A dict that maps each SearchState built from now on to the f that
    its search passed in."""
    fs = {}
    real = SearchState

    def built(solve, f, r0, r):
        state = real(solve, f, r0, r)
        fs[state] = f
        return state

    monkeypatch.setattr(lattice, "SearchState", built)
    return fs


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
        base = circulation.base_network(m, f)
        for _ in range(6):
            x = rng.randrange(m.num_faces)
            S = tuple(sorted({x} | {rng.randrange(m.num_faces) for _ in range(rng.randint(0, 2))}))
            cps = homology.copaths_from(m, x, S)
            state = SearchState(solve_record(m, basis, S, x, cps, 3), f, (0,) * len(basis.Y), {})
            target = random_target(rng, m, basis, f, S, x, cps)
            b = circulation.prescribed_cycle(m, basis, target)
            lengths = circulation.patched_network(m, state.base, b)
            assert (m.dual_arcs(), lengths) == full_build(m, f, b)
            assert engine_network(m, basis, f, target) == (b, lengths)
            # the state's network is the one-face target's at the anchor,
            # and asking again gives the same network
            one_face = HomologyTarget(target.a, (x,), x, {x: cps[x]}, {x: 0})
            b1, lengths1 = state.network(target.a)
            assert (m.dual_arcs(), lengths1) == full_build(m, f, b1)
            assert engine_network(m, basis, f, one_face) == (b1, lengths1)
            assert state.network(target.a) == (b1, lengths1)
            # patching never writes into the shared base list
            assert state.base == base
            checked += 1
    assert checked >= 200


def test_every_kept_cut_holds_where_the_stateless_pass_succeeds(monkeypatch):
    # cuts kept at outside anchors and at inside anchors both hold at
    # every box point of their search where a pass would return labels,
    # and at every brute-forced integer point with the search's residues
    first_point = {}
    kept_at = {"outside": 0, "inside": 0}
    real = lattice.layered_residue_solve
    real_points = lattice.lex_box_points
    steps = []
    fs = states_with_f(monkeypatch)

    def stepped(box, r0, m):
        # a search asks for its box points before its first pass
        steps.append(m)
        return real_points(box, r0, m)

    def recorded(search, a):
        # no cut is kept before the first pass, so each search's first
        # box point is a pass; it is kept with the search's step m
        first_point.setdefault(search, (a, steps[-1]))
        before = len(search.cuts)
        ell = real(search, a)
        if len(search.cuts) > before:
            solve = search.solve
            x = solve.x
            point = HomologyPoint(a, {x: 0})
            alone = lattice.membership(solve.g, solve.basis, fs[search], (x,), x, {x: solve.copaths[x]}, point)
            kept_at["inside" if alone is None else "outside"] += 1
        return ell

    monkeypatch.setattr(lattice, "lex_box_points", stepped)
    monkeypatch.setattr(lattice, "layered_residue_solve", recorded)
    cut_points = 0
    for g, pre in small_instances(300):
        cut_points += extend_precoloring(g, pre).points_cut
    for state, (first, step) in first_point.items():
        solve = state.solve
        m, basis, f = solve.g, solve.basis, fs[state]
        S, x, cps, mod, r = solve.S, solve.x, solve.copaths, solve.mod, state.r
        # the search's box points are those congruent to its first one
        # mod its step m; its passes run over mod residue copies, 1 when
        # S = (x,)
        box, _ = lattice.pairing_bounds(f, basis, cps)
        for u in real_points(box, [c % step for c in first], step):
            if fresh_pass(m, basis, f, u, S, x, cps, mod, r) is not None:
                for z, rhs in state.cuts:
                    assert sum(zi * ui for zi, ui in zip(z, u)) <= rhs
        s_order = sorted(S)
        for a, ap in integer_points_bruteforce(m, basis, flows.Flow(f), S, x, cps):
            if all((ai - ci) % step == 0 for ai, ci in zip(a, first)) and all(
                (v - r[y]) % step == 0 for y, v in zip(s_order, ap)
            ):
                for z, rhs in state.cuts:
                    assert sum(zi * ai for zi, ai in zip(z, a)) <= rhs
    assert min(kept_at.values()) >= 20 and cut_points >= 100, (kept_at, cut_points)


def test_search_gives_the_same_results_without_its_state(monkeypatch):
    searches = []
    real = lattice.find_constrained_circulation

    def recorded(solve, f0, r0, r):
        before = solve.points_tested
        res = real(solve, f0, r0, r)
        searches.append(((solve, f0, r0, r), res, solve.points_tested - before))
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
    """The layered network of the pass at anchor a, as its arcs, node by
    node, the lengths of its base arcs, and its k(y)."""
    target = HomologyTarget(a, (x,), x, {x: copaths[x]}, {x: 0})
    b, lengths = engine_network(m, basis, f, target)
    kept = {y: (r[y] - pair(b, copaths[y])) % mod for y in S}
    return lattice._layered_arcs(m, lengths, mod, kept), lengths, kept


def test_the_layered_network_is_the_same_at_every_box_point_of_a_search(monkeypatch):
    # the lemma the residue cuts rest on: from one box point of a search
    # to another, the arcs keep their heads and ids and only the base
    # lengths move, each by a multiple of m; so the network the state
    # built at its anchor is the one of every pass
    searches = {}
    real = lattice.layered_residue_solve
    fs = states_with_f(monkeypatch)

    def recorded(search, a):
        solve = search.solve
        args = (solve.g, solve.basis, fs[search], a, solve.S, solve.x, solve.copaths, solve.mod, search.r)
        arcs, lengths, kept = layered_network(*args)
        # the state builds its layers on its first pass
        ell = real(search, a)
        assert (arcs, kept) == (search.layers, search.kept)
        searches.setdefault(search, (args, lengths))
        return ell

    monkeypatch.setattr(lattice, "layered_residue_solve", recorded)
    for g, pre in hexagon_instances():
        extend_precoloring(g, pre)
    pairs = {3: 0, 5: 0}
    for state, ((m, basis, f, a, S, x, cps, mod, r), lengths) in searches.items():
        box, _ = lattice.pairing_bounds(f, basis, cps)
        points = [u for u in lattice.lex_box_points(box, [ai % mod for ai in a], mod) if u != a]
        for u in points[:6]:
            arcs2, lengths2, kept2 = layered_network(m, basis, f, u, S, x, cps, mod, r)
            assert kept2 == state.kept
            assert arcs2 == state.layers
            assert len(lengths2) == len(lengths)
            assert all((l - l2) % mod == 0 for l, l2 in zip(lengths, lengths2))
            assert lengths2 != lengths
            pairs[mod] += 1
    assert min(pairs.values()) >= 5, pairs


def one_copy_searches(monkeypatch):
    """(m, basis, f, mod, r0, x) of searches with S = (x,): each random map
    of the differential tests with a random f of values +-1 and +-2, face
    x and anchor at m = 3, 5 or 7, then the searches of the unprecolored
    16x16 torus grid at m = 3 and 5."""
    rng = random.Random(449)
    for m in DIFFERENTIAL_MAPS["random"]:
        basis = homology.cohomology_basis(m)
        mod = rng.choice((3, 5, 7))
        r0 = [rng.randrange(mod) for _ in basis.Y]
        f = Chain1(m, {h: rng.choice((-2, -1, 1, 2)) for h in m.canonical_half_edges()})
        yield m, basis, f, mod, r0, rng.randrange(m.num_faces)
    real = lattice.find_constrained_circulation
    found = []

    def recorded(solve, f0, r0, r):
        found.append((solve.g, solve.basis, f0.chain, solve.m, r0, solve.x))
        return real(solve, f0, r0, r)

    with monkeypatch.context() as mp:
        mp.setattr(lattice, "find_constrained_circulation", recorded)
        for mod in (3, 5):
            assert extend_precoloring(gen_grid(16, 16), Precoloring(mod)).extendable
    assert len(found) == 2
    yield from found


def general_build(state, anchor):
    """The state's kept and layers rebuilt as a search with m copies
    builds them: from the repair network at the anchor, for the state's
    own number of copies."""
    solve = state.solve
    b, lengths = state.network(anchor)
    state.kept = {y: (state.r[y] - pair(b, solve.copaths[y])) % solve.mod for y in solve.S}
    state.layers = lattice._layered_arcs(solve.g, lengths, solve.mod, state.kept)


def test_a_one_copy_search_runs_on_the_dual_as_it_stands(monkeypatch):
    # with S = (x,) the state's network is the dual's own arc lists, with
    # k(x) = 0 and no network built at the anchor; list for list that is
    # the general build's one copy, and at every box point its pass gives
    # the general build's labels, circulation and kept cuts, and the
    # circulation of the least distances over one copy of every face
    builds = []
    count_calls(monkeypatch, lattice, "_layered_arcs", builds)
    count_calls(monkeypatch, SearchState, "network", builds)
    points = cuts = 0
    for m, basis, f, mod, r0, x in one_copy_searches(monkeypatch):
        cps = homology.copaths_from(m, x, (x,))
        del builds[:]
        one = SearchState(solve_record(m, basis, (x,), x, cps, mod), f, r0, {})
        assert not builds
        assert (one.solve.mod, one.kept) == (1, {x: 0}) and one.layers is m.dual_arcs()
        general = SearchState(solve_record(m, basis, (x,), x, cps, mod), f, r0, {})
        general_build(general, r0)
        assert general.layers == one.layers and general.kept == one.kept
        box, _ = lattice.pairing_bounds(f, basis, {})
        for u in lattice.lex_box_points(box, r0, mod):
            ell = lattice.layered_residue_solve(one, u)
            assert lattice.layered_residue_solve(general, u) == ell
            assert one.cuts == general.cuts
            if ell is None:
                assert layered_pass(one, 1, u) == (None, None)
            else:
                assert layered_pass(one, 1, u) == (ell, one.chain) == (ell, general.chain)
            points += 1
            cuts += ell is None
    assert points >= 150 and 20 <= cuts < points, (points, cuts)


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
    fs = states_with_f(monkeypatch)

    def recording(m, basis, f, S, x, copaths, point, search=None):
        before = search.solve.points_cut
        cut = real(m, basis, f, S, x, copaths, point, search)
        if search.solve.points_cut > before:
            skipped.append((search, point))
        return cut

    monkeypatch.setattr(lattice, "membership", recording)
    small = 0
    for g, pre in residue_cut_instances():
        before = len(skipped)
        res = extend_precoloring(g, pre)
        assert res.points_cut == len(skipped) - before
        for state, u in skipped[before:]:
            solve = state.solve
            args = (solve.g, solve.basis, fs[state], u, solve.S, solve.x, solve.copaths, solve.mod, state.r)
            assert fresh_pass(*args) is None
            try:
                assert two_step(*args) is None
            except AnchorOutsidePolytope:
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


def test_a_solve_builds_no_homology_point_or_separator(monkeypatch):
    # a box point stays the int tuple that lex_box_points made, and a
    # refused one is answered by its kept cut: no solve builds either
    # wrapper, and membership is still called once per tested point
    built = []
    for cls in (HomologyPoint, Separator):
        def init(self, *args, real=cls.__init__):
            built.append(type(self).__name__)
            real(self, *args)

        monkeypatch.setattr(cls, "__init__", init)
    counts = {"tested": 0, "cut": 0}
    for g, pre in differential_solves():
        log = []
        with monkeypatch.context() as mp:
            count_calls(mp, lattice, "membership", log)
            res = extend_precoloring(g, pre)
        assert len(log) == res.points_tested
        counts["tested"] += res.points_tested
        counts["cut"] += res.points_cut
    assert built == []
    assert counts["tested"] >= 400 and counts["cut"] >= 200, counts
    # the patched constructors still count where the wrappers are built
    HomologyPoint((0,), {})
    Separator((0,), {}, 0)
    assert built == ["HomologyPoint", "Separator"]


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
    assert (res.extendable, res.points_tested, passes, res.points_cut) == (False, 255, 3, 252)


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
    # each search builds the f-part of its networks once, and its residue
    # passes and its final extraction all patch that one base; the engine,
    # which builds a base of its own, never runs
    builds = []
    count_calls(monkeypatch, lattice, "find_constrained_circulation", builds)
    count_calls(monkeypatch, circulation, "base_network", builds)
    count_calls(monkeypatch, circulation, "circulation_or_certificate", builds)
    found = sum(extend_precoloring(g, pre).extendable for g, pre in hexagon_instances())
    searches = builds.count("find_constrained_circulation")
    assert found > 0 and searches > found
    assert builds == ["find_constrained_circulation", "base_network"] * searches


def test_one_layered_network_per_search_and_one_dual_arc_list_per_map(monkeypatch):
    # a search that runs a pass builds its layered arcs once, on its first
    # pass, and its later passes read them; a search whose every box point
    # a cut answers builds none; every network of a map reads that map's
    # one set of dual arcs
    builds = []
    count_calls(monkeypatch, lattice, "_layered_arcs", builds)
    count_calls(monkeypatch, lattice, "find_constrained_circulation", builds)
    searches = {}
    real = lattice.layered_residue_solve

    def recorded(search, a):
        before = len(builds)
        ell = real(search, a)
        searches[search] = searches.get(search, 0) + len(builds) - before
        return ell

    monkeypatch.setattr(lattice, "layered_residue_solve", recorded)
    arcs = {}
    real_dual_arcs = CombinatorialMap.dual_arcs

    def dual_arcs(self):
        out = real_dual_arcs(self)
        arcs.setdefault(self, set()).add(id(out))
        return out

    monkeypatch.setattr(CombinatorialMap, "dual_arcs", dual_arcs)
    passes = 0
    for g, pre in hexagon_instances():
        res = extend_precoloring(g, pre)
        passes += res.points_tested - res.points_cut
    assert len(searches) > 1 and all(n == 1 for n in searches.values())
    assert builds.count("_layered_arcs") == len(searches) < builds.count("find_constrained_circulation")
    assert len(searches) < passes
    assert arcs and all(len(ids) == 1 for ids in arcs.values())


def test_the_accepting_pass_gives_the_engines_circulation(monkeypatch):
    # at every accepted box point u with labels ell, the search returns
    # the circulation the engine builds for HomologyTarget(u, S, x,
    # copaths, ell)
    accepted = []
    real_pass = lattice.layered_residue_solve
    real_search = lattice.find_constrained_circulation

    def recorded_pass(search, a):
        ell = real_pass(search, a)
        if ell is not None:
            accepted.append((a, dict(ell)))
        return ell

    found = []

    def recorded_search(solve, f0, r0, r):
        before = len(accepted)
        res = real_search(solve, f0, r0, r)
        # the first pass that succeeds ends the search
        assert len(accepted) - before == (res is not None)
        if res is not None:
            u, ell = accepted[-1]
            target = HomologyTarget(u, solve.S, solve.x, solve.copaths, ell)
            engine = circulation.circulation_or_certificate(solve.g, solve.basis, f0.chain, target)
            assert isinstance(engine, Circulation) and engine.chain == res.chain
            found.append(res)
        return res

    monkeypatch.setattr(lattice, "layered_residue_solve", recorded_pass)
    monkeypatch.setattr(lattice, "find_constrained_circulation", recorded_search)
    for g, pre in [*small_instances(300), *hexagon_instances()]:
        extend_precoloring(g, pre)
    assert len(found) >= 60, len(found)


def differential_solves():
    """One solve of each map of the differential tests, at m = 3, 5 or 7
    with up to two precolored vertices, then the hexagon instances."""
    rng = random.Random(467)
    for kind in sorted(DIFFERENTIAL_MAPS):
        for g in DIFFERENTIAL_MAPS[kind]:
            mod = rng.choice((3, 5, 7))
            size = rng.randint(0, min(2, g.num_vertices))
            yield g, Precoloring(mod, {v: rng.randrange(mod) for v in rng.sample(range(g.num_vertices), size)})
    yield from hexagon_instances()


def test_one_record_per_solve(monkeypatch):
    # each solve builds one record; every search of the solve receives
    # that object and its state reads it, no state slot holds a per-solve
    # field of its own, and the record's counters are the result's
    records, searches, states = [], [], []
    real_solve, real_search, real_state = lattice.Solve, lattice.find_constrained_circulation, SearchState

    def built(*args):
        records.append(real_solve(*args))
        return records[-1]

    def searched(solve, f0, r0, r):
        searches.append(solve)
        return real_search(solve, f0, r0, r)

    def state(solve, f, r0, r):
        states.append(real_state(solve, f, r0, r))
        return states[-1]

    monkeypatch.setattr(lattice, "Solve", built)
    monkeypatch.setattr(lattice, "find_constrained_circulation", searched)
    monkeypatch.setattr(lattice, "SearchState", state)
    per_solve = ("g", "basis", "S", "x", "copaths", "m", "mod")
    assert set(SearchState.__slots__).isdisjoint({"map", "stats", *per_solve})
    counts = {True: 0, False: 0, "early": 0, "shared": 0}
    for g, pre in differential_solves():
        del records[:], searches[:], states[:]
        res = extend_precoloring(g, pre)
        if res.reason is not None:
            # a loop or a precolored non-edge answers before any record
            assert not records and (res.boundaries_tried, res.points_tested) == (0, 0)
            counts["early"] += 1
            continue
        [solve] = records
        assert all(s is solve for s in searches) and len(states) == len(searches)
        for st in states:
            assert st.solve is solve
            for slot in SearchState.__slots__:
                if slot != "solve":
                    assert all(getattr(st, slot) is not getattr(solve, name) for name in per_solve)
        assert (solve.points_tested, solve.points_cut) == (res.points_tested, res.points_cut)
        counts[res.extendable] += 1
        counts["shared"] += len(searches) > 1
    assert min(counts.values()) >= 5, counts


def planted_precoloring(n, m, size, rng):
    """Colors on size vertices of the n x n torus grid (vertex n * i + j
    at (i, j)) from phi(i, j) = s_i + t_j (mod m), s and t closed walks of
    +-1 steps in C_m: phi colors the grid, and every map it loses edges
    from, so the precoloring extends.  Unlike the balanced walks of
    ``test_paths.planted_precoloring``, n may be odd."""
    def closed_walk():
        while True:
            steps = [rng.choice((1, -1)) for _ in range(n)]
            if sum(steps) % m == 0:
                return [sum(steps[:i]) for i in range(n)]

    s, t = closed_walk(), closed_walk()
    return {v: (s[v // n] + t[v % n]) % m for v in rng.sample(range(n * n), size)}


def hexagon_tori():
    """(map, precoloring, planted): 5x5 and 6x6 torus grids with 2 to 4
    hexagons, each at m = 3 and 5 with 7 precolored vertices, planted or
    random.  At m = 5 a hexagon, like a square, allows only excess 0, so
    those solves stream one boundary and run one search."""
    rng = random.Random(587)
    for _ in range(2):
        for n in (5, 6):
            for k in (2, 3, 4):
                g = hexagon_grid(n, k, rng)
                for mod in (3, 5):
                    yield g, Precoloring(mod, planted_precoloring(n, mod, 7, rng)), True
                    yield g, Precoloring(mod, nonadjacent_precoloring(g, mod, 7, rng)), False


def pooled_cut_answers(monkeypatch):
    """A list that gets (search, point) for each box point from now on
    that a cut lifted from the solve's pool answers: the cuts a search
    holds at its first box point are the lifted ones."""
    answered = []
    lifted = {}
    real = lattice.membership

    def recording(m, basis, f, S, x, copaths, point, search=None):
        n = lifted.setdefault(search, len(search.cuts))
        before = search.solve.points_cut
        cut = real(m, basis, f, S, x, copaths, point, search)
        if search.solve.points_cut > before and any(cut is c for c in search.cuts[:n]):
            answered.append((search, point))
        return cut

    monkeypatch.setattr(lattice, "membership", recording)
    return answered


def test_every_point_a_pooled_cut_answers_fails_a_fresh_pass(monkeypatch):
    # a failed pass's walk, lifted into a later search's layered network,
    # is a closed walk of that network, so at each point its cut answers,
    # the pass on a fresh state, with an empty pool, fails too.  At m = 5
    # the hexagon tori run one search per solve, so the pooled cuts there
    # come from the small random maps
    fs = states_with_f(monkeypatch)
    answered = pooled_cut_answers(monkeypatch)
    counts = {3: 0, 5: 0, 7: 0}
    instances = [(g, pre) for g, pre, _ in hexagon_tori()] + list(small_instances(1000))
    for g, pre in instances:
        before = len(answered)
        extend_precoloring(g, pre)
        for state, u in answered[before:]:
            solve = state.solve
            args = (solve.g, solve.basis, fs[state], u, solve.S, solve.x, solve.copaths, solve.mod, state.r)
            assert fresh_pass(*args) is None
        counts[pre.m] += len(answered) - before
    assert counts[3] >= 500 and counts[5] >= 10, counts


def test_solves_that_pooled_cuts_answer_match_backtracking(monkeypatch):
    # whole solves in which cuts lifted from the pool answer box points,
    # and the searches' own kept cuts answer others, each verdict held
    # against backtracking; a planted precoloring must extend
    answered = pooled_cut_answers(monkeypatch)
    counts = {True: 0, False: 0, "own cuts": 0}
    for g, pre, planted in hexagon_tori():
        before = len(answered)
        res = extend_precoloring(g, pre)
        assert res.extendable == backtrack_extendable(g, pre.m, pre.psi)
        assert res.extendable or not planted
        pooled = len(answered) - before
        if pooled:
            counts[res.extendable] += 1
            counts["own cuts"] += res.points_cut > pooled
    assert min(counts.values()) >= 5, counts
