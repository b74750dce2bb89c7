"""Tree-cotree bases, homology classes, the boundary test, and copaths."""

import random

import pytest

from surfcolor import build_map, chains, errors, homology
from surfcolor.chains import Chain1, Chain2, coboundary1, is_cocycle, is_cycle, pair
from surfcolor.cli import gen_bouquet, gen_grid

from conftest import DIFFERENTIAL_MAPS, random_map
from map_reference import NotACycle, is_1boundary, vertex_coboundary


def test_bouquet2_basis():
    m = gen_bouquet(2)
    basis = homology.cohomology_basis(m)
    assert basis.Y == [0, 2]
    assert basis.cycles[0] == Chain1(m, {0: 1})
    assert basis.cycles[1] == Chain1(m, {2: 1})
    assert basis.cocycles[0] == Chain1(m, {0: 1})
    assert basis.cocycles[1] == Chain1(m, {2: 1})


def test_sphere_has_empty_basis():
    m = build_map([[0], [1]])
    basis = homology.cohomology_basis(m)
    assert len(basis) == 0


def test_grid_basis_size():
    basis = homology.cohomology_basis(gen_grid(3, 3))
    assert len(basis) == 2


def test_pairing_matrix_identity(corpus_map):
    basis = homology.cohomology_basis(corpus_map)
    g = len(basis)
    mat = [[pair(f, k) for k in basis.cocycles] for f in basis.cycles]
    assert mat == [[1 if i == j else 0 for j in range(g)] for i in range(g)]


def test_basis_chains_are_cycles_cocycles_simple(corpus_map):
    basis = homology.cohomology_basis(corpus_map)
    for f in basis.cycles:
        assert is_cycle(f)
        assert f.is_simple()
    for k in basis.cocycles:
        assert is_cocycle(k)
        assert k.is_simple()


def test_homology_class_of_basis_elements():
    m = gen_bouquet(2)
    basis = homology.cohomology_basis(m)
    assert homology.homology_class(basis.cocycles[0], basis) == (1, 0)
    assert homology.homology_class(basis.cocycles[1], basis) == (0, 1)
    assert homology.homology_class(Chain1(m, {0: 2, 2: -1}), basis) == (2, -1)


def test_homology_class_of_coboundaries_vanishes(corpus_map):
    m = corpus_map
    basis = homology.cohomology_basis(m)
    for v in range(m.num_vertices):
        k = vertex_coboundary(m, v)
        assert homology.homology_class(k, basis) == (0,) * len(basis)


def test_homology_class_requires_cocycle():
    m = build_map([[0, 2], [1, 3]])
    basis = homology.cohomology_basis(m)
    with pytest.raises(errors.NotACocycle):
        homology.homology_class(Chain1(m, {0: 1}), basis)


def test_residual_after_class_subtraction_pairs_to_zero(corpus_map):
    rng = random.Random(31)
    m = corpus_map
    basis = homology.cohomology_basis(m)
    for _ in range(10):
        b0 = chains.Chain0(m, {v: rng.randint(-2, 2) for v in range(m.num_vertices)})
        k = chains.coboundary2(b0)
        for f_e, zi in zip(basis.cycles, (0,) * len(basis)):
            assert pair(f_e, k) == zi
        # add basis cocycles and verify extraction
        z = [rng.randint(-2, 2) for _ in range(len(basis))]
        k2 = k + basis.combination(z)
        assert homology.homology_class(k2, basis) == tuple(z)
        residual = k2 - basis.combination(homology.homology_class(k2, basis))
        for f_e in basis.cycles:
            assert pair(f_e, residual) == 0


def test_is_1boundary(corpus_map):
    rng = random.Random(37)
    m = corpus_map
    basis = homology.cohomology_basis(m)
    for _ in range(10):
        a = Chain2(m, {x: rng.randint(-2, 2) for x in range(m.num_faces)})
        assert is_1boundary(chains.boundary2(a), basis)
    for f_e in basis.cycles:
        assert not is_1boundary(f_e, basis)


def test_is_1boundary_requires_cycle():
    m = build_map([[0], [1]])
    basis = homology.cohomology_basis(m)
    with pytest.raises(NotACycle):
        is_1boundary(Chain1(m, {0: 1}), basis)


def test_every_sphere_cycle_bounds():
    rng = random.Random(41)
    for _ in range(20):
        m = random_map(rng)
        if m.euler_genus != 0:
            continue
        basis = homology.cohomology_basis(m)
        a = Chain2(m, {x: rng.randint(-2, 2) for x in range(m.num_faces)})
        assert is_1boundary(chains.boundary2(a), basis)
        assert len(basis) == 0


def test_copaths(corpus_map):
    m = corpus_map
    x = 0
    cps = homology.copaths_from(m, x, range(m.num_faces))
    assert cps[x].is_zero()
    for y in range(m.num_faces):
        cp = cps[y]
        assert cp.is_simple()
        expected = Chain2(m, {y: 1}) - Chain2(m, {x: 1})
        assert coboundary1(cp) == expected


@pytest.mark.parametrize("kind", sorted(DIFFERENTIAL_MAPS))
def test_copaths_to_x_alone_build_no_tree(kind, monkeypatch):
    # with every target x the copath is the zero chain the tree walk
    # gives, and no tree is built; targets are read once, so a one-shot
    # iterator gives what a range gives
    rng = random.Random(443)
    trees = []
    real = homology._bfs_tree

    def counted(*args):
        trees.append(args)
        return real(*args)

    monkeypatch.setattr(homology, "_bfs_tree", counted)
    for m in DIFFERENTIAL_MAPS[kind]:
        x = rng.randrange(m.num_faces)
        parent_f, _ = real(m, m.faces, m.left, x)
        walk = chains.walk_chain(m, [m.opp[h] for h in homology._walk_to_root(parent_f, m.left, x)])
        del trees[:]
        assert homology.copaths_from(m, x, (x,)) == {x: walk}
        assert homology.copaths_from(m, x, [x, x]) == {x: walk}
        assert walk.is_zero() and not trees
        every = homology.copaths_from(m, x, range(m.num_faces))
        assert len(trees) == (m.num_faces > 1)
        assert every[x] == walk
        assert homology.copaths_from(m, x, iter(range(m.num_faces))) == every
        for y in range(m.num_faces):
            assert homology.copaths_from(m, x, (x, y)) == {x: walk, y: every[y]}


def test_copath_between_adjacent_faces():
    m = gen_grid(3, 3)
    h = 0
    x = m.left[m.opp[h]]
    y = m.left[h]
    assert x != y
    cps = homology.copaths_from(m, x, [y])
    chain = cps[y]
    assert coboundary1(chain) == Chain2(m, {y: 1, x: -1})
    # the copath is a single half-edge of the shared edge, with left = y
    support = chain.items()
    assert len(support) == 1
    hh, coeff = support[0]
    crossing = hh if coeff == 1 else m.opp[hh]
    assert m.left[crossing] == y and m.left[m.opp[crossing]] == x


def _basis_values(basis):
    return (
        basis.Y,
        [dict(f.items()) for f in basis.cycles],
        [dict(k.items()) for k in basis.cocycles],
    )


def test_grid34_basis_is_pinned():
    basis = homology.cohomology_basis(gen_grid(3, 4))
    assert _basis_values(basis) == (
        [8, 44],
        [{0: 1, 8: 1, 16: 1}, {40: 1, 42: 1, 44: 1, 46: 1}],
        [{8: 1, 10: 1, 12: 1, 14: 1}, {28: 1, 36: 1, 44: 1}],
    )


def test_q13_dual_basis_is_pinned():
    from surfcolor import dual
    from surfcolor.cli import gen_q13

    basis = homology.cohomology_basis(dual(gen_q13()))
    assert _basis_values(basis) == (
        [18, 32],
        [{0: 1, 10: 1, 18: 1, 36: 1, 44: 1}, {0: -1, 16: -1, 28: 1, 30: 1, 32: 1}],
        [{4: 1, 6: 1, 18: 1, 34: 1, 46: 1}, {14: -1, 22: -1, 32: 1, 40: 1, 48: 1}],
    )


def _reference_bfs_tree(num_nodes, root, arcs_of):
    parent_arc = [None] * num_nodes
    seen = [False] * num_nodes
    seen[root] = True
    queue = [root]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for arc, w in arcs_of(v):
            if not seen[w]:
                seen[w] = True
                parent_arc[w] = arc
                queue.append(w)
    return parent_arc


def reference_primal_tree(m, root=0):
    """The graph's BFS tree as separate builders made it, as a check on
    the one tree builder."""

    def arcs_of(v):
        for h in sorted(m.rot[v]):
            yield h, m.tgt[m.opp[h]]

    return _reference_bfs_tree(m.num_vertices, root, arcs_of)


def reference_dual_tree(m, root, excluded_edges):
    """The dual's BFS tree from a rebuilt list of each face's incoming
    half-edges, skipping excluded edges."""
    incoming = [[] for _ in range(m.num_faces)]
    for h in m.half_edges():
        incoming[m.left[h]].append(h)

    def arcs_of(x):
        for h in sorted(incoming[x]):
            if m.canonical(h) not in excluded_edges:
                yield h, m.left[m.opp[h]]

    return _reference_bfs_tree(m.num_faces, root, arcs_of)


@pytest.mark.parametrize("kind", sorted(DIFFERENTIAL_MAPS))
def test_one_tree_builder_equals_the_separate_builders(kind):
    rng = random.Random(kind)
    for m in DIFFERENTIAL_MAPS[kind]:
        parent_v = homology._bfs_tree(m, m.rot, m.tgt, 0)[0]
        assert parent_v == reference_primal_tree(m)
        # the cotree avoids the tree's edges, as cohomology_basis builds it
        tree_edges = {m.canonical(h) for h in parent_v if h is not None}
        cotree = homology._bfs_tree(m, m.faces, m.left, 0, tree_edges)[0]
        assert cotree == reference_dual_tree(m, 0, tree_edges)
        # a copath tree from a random root, and a dual tree avoiding a
        # random edge set that may leave faces unreached
        x = rng.randrange(m.num_faces)
        assert homology._bfs_tree(m, m.faces, m.left, x)[0] == reference_dual_tree(m, x, frozenset())
        edges = m.canonical_half_edges()
        excluded = set(rng.sample(edges, rng.randint(0, len(edges))))
        assert homology._bfs_tree(m, m.faces, m.left, x, excluded)[0] == reference_dual_tree(
            m, x, excluded
        )


@pytest.mark.parametrize("kind", sorted(DIFFERENTIAL_MAPS))
def test_tree_order_lists_each_reached_node_after_its_parent(kind):
    rng = random.Random("order/" + kind)
    unreached = 0
    for m in DIFFERENTIAL_MAPS[kind]:
        edges = m.canonical_half_edges()
        x = rng.randrange(m.num_faces)
        primal = homology._bfs_tree(m, m.rot, m.tgt, 0)
        tree_edges = {m.canonical(h) for h in primal[0] if h is not None}
        trees = [
            (m.tgt, primal, 0),
            (m.left, homology._bfs_tree(m, m.faces, m.left, 0, tree_edges), 0),
            (m.left, homology._bfs_tree(m, m.faces, m.left, x), x),
        ]
        for _ in range(3):
            excluded = set(rng.sample(edges, rng.randint(0, len(edges))))
            trees.append((m.left, homology._bfs_tree(m, m.faces, m.left, x, excluded), x))
        for head, (parent_arc, order), root in trees:
            assert order[0] == root
            reached = {root} | {w for w, h in enumerate(parent_arc) if h is not None}
            assert len(order) == len(set(order)) and set(order) == reached
            unreached += len(parent_arc) - len(order)
            place = {w: i for i, w in enumerate(order)}
            for w in order[1:]:
                assert place[head[parent_arc[w]]] < place[w]
    # the excluded-edge trees leave some faces unreached
    if any(m.num_faces > 1 for m in DIFFERENTIAL_MAPS[kind]):
        assert unreached > 0
