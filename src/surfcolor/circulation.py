"""Circulations with prescribed pairings, or a violated-copath certificate.

Given a reference 1-chain f and prescribed pairings against the basis
cocycles and a family of copaths, the engine first builds a 1-cycle b
realizing the pairings, then repairs it into an f-circulation by adding
the boundary of a 2-chain of shortest-path distances on the dual, taken
by one call of the ``paths.shortest_paths`` kernel from the faces of S.
When no circulation exists, the negative cycle or negative
source-to-source path that call finds yields a simple copath certifying
infeasibility.

The dual arcs and the f-part of their lengths depend on f alone:
``base_network`` builds them once for many targets, and
``patched_network`` takes each target's b off the arcs of its support.
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
        if not copaths[x].chain.is_zero():
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
    for ai, f_e in zip(target.a, basis.cycles):
        if ai:
            b = b + ai * f_e
    for y in target.S:
        if y == target.x:
            continue
        gamma = target.a_prime[y] - sum(
            ai * pair(f_e, target.copaths[y].chain)
            for ai, f_e in zip(target.a, basis.cycles)
        )
        if gamma:
            b = b + gamma * chains.face_boundary(m, y)
    return b


def base_network(m, f):
    """The part of every repair network that f alone fixes, as (out, pos):
    half-edge h is the arc left(opp(h)) -> left(h) of length f[h] where
    f[h] > 0, else 0, at index pos[h] of out[left(opp(h))].  Each out list
    holds its arcs in ascending half-edge order."""
    fc = f.coeffs
    out = [[] for _ in range(m.num_faces)]
    pos = []
    for h in m.half_edges():
        o = m.opp[h]
        fh = fc.get(h, 0) if h < o else -fc.get(o, 0)
        arcs = out[m.left[o]]
        pos.append(len(arcs))
        arcs.append((m.left[h], fh if fh > 0 else 0, h))
    return out, pos


def patched_network(m, base, b):
    """The out lists of a base network with b[h] taken off the length of
    every arc h.  Untouched lists are shared with the base; only the lists
    holding a half-edge of b's support, either orientation, are copied."""
    out, pos = base
    out = list(out)
    copied = set()
    for hc, c in b.coeffs.items():
        for h, bh in ((hc, c), (m.opp[hc], -c)):
            tail = m.left[m.opp[h]]
            if tail not in copied:
                copied.add(tail)
                out[tail] = list(out[tail])
            head, length, _ = out[tail][pos[h]]
            out[tail][pos[h]] = (head, length - bh, h)
    return out


def repair_network(m, basis, f, target):
    """The prescribed cycle b and the dual network that repairs it into an
    f-circulation, as (b, out): half-edge h is the arc left(opp(h)) ->
    left(h) in out, of length f[h] - b[h] where f[h] > 0, else -b[h].
    Each out list holds its arcs in ascending half-edge order."""
    b = prescribed_cycle(m, basis, target)
    return b, patched_network(m, base_network(m, f), b)


def circulation_or_certificate(m, basis, f, target, network=None):
    """Find an f-circulation realizing the target pairings, or a
    certificate that none exists.  The two outcomes are exhaustive.

    network, when given, is the (b, out) that repair_network(m, basis, f,
    target) would build; the engine only reads it.
    """
    b, out = network if network is not None else repair_network(m, basis, f, target)

    # every edge gives dual arcs both ways, so the sources reach every
    # negative cycle
    dist, pred, cyc = shortest_paths(m.num_faces, out, target.S)
    if cyc is not None:
        D = chains.walk_chain(m, cyc)
        z = homology.homology_class(D, basis)
        lhs = sum(zi * ai for zi, ai in zip(z, target.a))
        rhs = pair_plus(f, D)
        cert = Certificate(D, target.x, target.x, z, lhs, rhs)
        if __debug__:
            validate_certificate(m, basis, f, target, cert)
        return cert

    assert all(d is not None for d in dist)
    neg = [y for y in target.S if dist[y] < 0]
    if neg:
        y_prime = min(neg)
        arcs = []
        v = y_prime
        while pred[v] is not None:
            v, _, h = pred[v]
            arcs.append(h)
        arcs.reverse()
        y = v
        D = chains.walk_chain(m, arcs)
        z = homology.homology_class(
            D - (target.copaths[y_prime].chain - target.copaths[y].chain), basis
        )
        lhs = (
            sum(zi * ai for zi, ai in zip(z, target.a))
            + target.a_prime[y_prime]
            - target.a_prime[y]
        )
        rhs = pair_plus(f, D)
        cert = Certificate(D, y, y_prime, z, lhs, rhs)
        if __debug__:
            validate_certificate(m, basis, f, target, cert)
        return cert

    assert all(dist[y] == 0 for y in target.S)
    L = Chain2(m, {x: d for x, d in enumerate(dist) if d})
    c = Circulation(b + chains.boundary2(L))
    if __debug__:
        validate_circulation(m, basis, f, target, c)
    return c


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
    for ai, k in zip(target.a, basis.cocycles):
        if pair(chain, k) != ai:
            raise AssertionError("cocycle pairing mismatch")
    for y in target.S:
        if pair(chain, target.copaths[y].chain) != target.a_prime[y]:
            raise AssertionError("copath pairing mismatch at face %d" % y)


def validate_certificate(m, basis, f, target, cert):
    """Assert the full contract of a returned certificate."""
    assert cert.D.is_simple(), "certificate copath is not simple"
    bnd = chains.coboundary1(cert.D)
    expect = Chain2(m, {cert.y_prime: 1}) - Chain2(m, {cert.y: 1})
    assert bnd == expect, "certificate endpoints do not match its coboundary"
    assert cert.lhs > cert.rhs, "certificate inequality is not strict"
    recomputed = homology.homology_class(
        cert.D
        - (target.copaths[cert.y_prime].chain - target.copaths[cert.y].chain),
        basis,
    )
    assert tuple(cert.z) == recomputed, "certificate homology class mismatch"
