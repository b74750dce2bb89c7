"""Circulations with prescribed pairings, or a violated-copath certificate.

Given a reference 1-chain f and prescribed pairings against the basis
cocycles and a family of copaths, the engine first builds a 1-cycle b
realizing the pairings, then repairs it into an f-circulation by adding
the boundary of a 2-chain of shortest-path distances on the dual, taken
by one call of the ``paths.shortest_paths`` kernel from the faces of S.
When no circulation exists, the negative source-to-source path that
call finds yields a simple copath from y to y' in S certifying
infeasibility.  A negative cycle is the case y = y' = x, a copath from
x back to x, where P(x) - P(x) and a'(x) - a'(x) vanish, so one
construction builds both certificates.  The engine is the polytope
oracle of ``lattice.membership`` without a search state; a search reads
its circulation off its own pass.

The dual arcs depend on the map alone: ``CombinatorialMap.dual_arcs``
builds them once per map.  The f-part of their lengths depends on f
alone: ``base_network`` builds it once for many targets, and
``patched_network`` copies it with each target's b taken off the arcs of
its support.
A certificate's inequality <z, a> + a'(y') - a'(y) <= rhs holds for every
circulation of f, whatever the target: each pairs with D to the left
side, and to at most rhs = pair_plus(f, D) since it lies between 0 and f.
``lattice.membership`` returns these inequalities as separators.
"""

from __future__ import annotations

from . import chains, homology
from .chains import Chain1, Chain2, pair, pair_plus
from .paths import shortest_paths


class HomologyTarget:
    """Prescribed pairings: a over the basis, a_prime over a face set S.

    copaths maps each y in S to a copath from the distinguished face x
    (the copath at x is the zero chain), and a_prime[x] must be 0.
    """

    __slots__ = ("a", "S", "x", "copaths", "a_prime")

    def __init__(self, a, S, x, copaths, a_prime):
        self.a = tuple(a)
        self.S = tuple(sorted(S))
        self.x = x
        self.copaths = copaths
        self.a_prime = dict(a_prime)
        if x not in self.S:
            raise ValueError("x must belong to S")
        if self.a_prime.get(x, 0) != 0:
            raise ValueError("a_prime must vanish at x")
        self.a_prime[x] = 0
        if not copaths[x].is_zero():
            raise ValueError("the copath at x must be the zero chain")


class Circulation:
    """A 1-cycle c with 0 <= c[h] <= f[h] wherever the reference f[h] >= 0."""

    __slots__ = ("chain",)

    def __init__(self, chain):
        self.chain = chain

    def __repr__(self):
        return "Circulation(%r)" % (self.chain,)


class Certificate:
    """A simple copath D from y to y_prime whose one-sided capacity is
    exceeded by the prescribed pairings: lhs > rhs proves no circulation
    can satisfy the target."""

    __slots__ = ("D", "y", "y_prime", "z", "lhs", "rhs")

    def __init__(self, D, y, y_prime, z, lhs, rhs):
        self.D = D
        self.y = y
        self.y_prime = y_prime
        self.z = z
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return "Certificate(%d -> %d, lhs=%d > rhs=%d)" % (
            self.y,
            self.y_prime,
            self.lhs,
            self.rhs,
        )


def prescribed_cycle(m, basis, target):
    """The 1-cycle b with pair(b, K_e) = a(e) and pair(b, P(y)) = a_prime(y).

    b is the a-combination of the basis cycles plus per-face multiples of
    face boundaries chosen to fix the copath pairings without disturbing
    the cocycle pairings.
    """
    b = Chain1(m)
    for ai, f_e in zip(target.a, basis.cycles, strict=True):
        if ai:
            b = b + ai * f_e
    for y in target.S:
        if y == target.x:
            continue
        gamma = target.a_prime[y] - sum(
            ai * pair(f_e, target.copaths[y])
            for ai, f_e in zip(target.a, basis.cycles, strict=True)
        )
        if gamma:
            b = b + gamma * chains.face_boundary(m, y)
    return b


def base_network(m, f):
    """The part of every repair network that f alone fixes, as a length
    list over the dual arcs ``m.dual_arcs()``: half-edge h has length f[h]
    where f[h] > 0, else 0."""
    fc = f.coeffs
    lengths = []
    for h, o in enumerate(m.opp):
        fh = fc.get(h, 0) if h < o else -fc.get(o, 0)
        lengths.append(fh if fh > 0 else 0)
    return lengths


def patched_network(m, base, b):
    """A copy of the length list base with b[h] taken off the length of
    every half-edge h of b's support, either orientation."""
    lengths = list(base)
    for h, c in b.coeffs.items():
        lengths[h] -= c
        lengths[m.opp[h]] += c
    return lengths


def repair_network(m, basis, f, target):
    """The prescribed cycle b and the lengths of the dual network that
    repairs it into an f-circulation, as (b, lengths): over the arcs
    ``m.dual_arcs()``, half-edge h has length f[h] - b[h] where f[h] > 0,
    else -b[h]."""
    b = prescribed_cycle(m, basis, target)
    return b, patched_network(m, base_network(m, f), b)


def circulation_or_certificate(m, basis, f, target):
    """Find an f-circulation realizing the target pairings, or a
    certificate that none exists.  The two outcomes are exhaustive."""
    b, lengths = repair_network(m, basis, f, target)

    # every edge gives dual arcs both ways, so the sources reach every
    # negative cycle
    dist, via, walk = shortest_paths(m.num_faces, m.dual_arcs(), lengths, target.S)
    if walk is None:
        assert all(d is not None for d in dist)
        neg = [y for y in target.S if dist[y] < 0]
        if not neg:
            assert all(dist[y] == 0 for y in target.S)
            L = Chain2(m, {x: d for x, d in enumerate(dist) if d})
            c = Circulation(b + chains.boundary2(L))
            if __debug__:
                validate_circulation(m, basis, f, target, c)
            return c
        # walk the tree path back: dual arc h leaves the face left(opp(h))
        y = y_prime = min(neg)
        walk = []
        while via[y] >= 0:
            h = via[y]
            walk.append(h)
            y = m.left[m.opp[h]]
        walk.reverse()
    else:
        # a negative cycle is a negative path from x back to x
        y = y_prime = target.x
    D = chains.walk_chain(m, walk)
    z = homology.homology_class(
        D - (target.copaths[y_prime] - target.copaths[y]), basis
    )
    lhs = (
        sum(zi * ai for zi, ai in zip(z, target.a))
        + target.a_prime[y_prime]
        - target.a_prime[y]
    )
    cert = Certificate(D, y, y_prime, z, lhs, pair_plus(f, D))
    if __debug__:
        validate_certificate(m, basis, f, target, cert)
    return cert


def validate_circulation(m, basis, f, target, c):
    """Check the full contract of a returned circulation, raising
    AssertionError explicitly, so that it checks under python -O too."""
    chain = c.chain
    if not chains.is_cycle(chain):
        raise AssertionError("circulation is not a 1-cycle")
    fc, cc = f.coeffs, chain.coeffs
    # both orientations of each edge: at opp(h) the bound 0 <= -c <= -f
    # where f[h] <= 0 reads f[h] <= c[h] <= 0
    for h in m.canonical_half_edges():
        fh, ch = fc.get(h, 0), cc.get(h, 0)
        if fh >= 0 and not 0 <= ch <= fh:
            raise AssertionError("dominance violated at half-edge %d" % h)
        if fh <= 0 and not fh <= ch <= 0:
            raise AssertionError("dominance violated at half-edge %d" % m.opp[h])
    for ai, k in zip(target.a, basis.cocycles, strict=True):
        if pair(chain, k) != ai:
            raise AssertionError("cocycle pairing mismatch")
    for y in target.S:
        if pair(chain, target.copaths[y]) != target.a_prime[y]:
            raise AssertionError("copath pairing mismatch at face %d" % y)


def validate_certificate(m, basis, f, target, cert):
    """Check the full contract of a returned certificate, raising
    AssertionError explicitly, so that it checks under python -O too."""
    if not cert.D.is_simple():
        raise AssertionError("certificate copath is not simple")
    expect = Chain2(m, {cert.y_prime: 1}) - Chain2(m, {cert.y: 1})
    if chains.coboundary1(cert.D) != expect:
        raise AssertionError("certificate endpoints do not match its coboundary")
    if not cert.lhs > cert.rhs:
        raise AssertionError("certificate inequality is not strict")
    recomputed = homology.homology_class(
        cert.D
        - (target.copaths[cert.y_prime] - target.copaths[cert.y]),
        basis,
    )
    if tuple(cert.z) != recomputed:
        raise AssertionError("certificate homology class mismatch")
