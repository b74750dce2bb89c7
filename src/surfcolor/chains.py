"""Integer chain groups on a combinatorial map and their operators.

0-chains live on vertices, 1-chains on half-edges, 2-chains on faces.
A 1-chain stores coefficients on canonical half-edges only and is
antisymmetric: K[opp(h)] = -K[h].  All coefficients are plain Python
integers, so arithmetic is exact at any magnitude.

One base class carries the algebra of all three chain types; each
constructor checks that its keys are vertices, half-edges or faces of
the map, and Chain1 also canonicalises them.  Each operator and its
dual read the same kernel through a different map array: boundary2 and
coboundary2 (and the walk chains) sum signed face orbits or vertex
rotations, while boundary1 and coboundary1 take head minus tail through
m.tgt or m.left.
boundary2 of a chain on at least half the faces is read edge by edge
instead, through m.left, which is cheaper there.
"""

from __future__ import annotations

from .errors import MapMismatch


def _check_same_map(a, b):
    if a.map is not b.map:
        raise MapMismatch("chains live on different maps")


def _check_keys(coeffs, n, what):
    """Raise ValueError unless every key is an int (not a bool) in 0..n-1;
    a negative key would otherwise index from the end of a map array."""
    for k in coeffs or ():
        if type(k) is not int or not 0 <= k < n:
            raise ValueError("%s %r not in the map" % (what, k))


class _SparseChain:
    """The algebra shared by all chain types: a dict of nonzero
    coefficients on one map."""

    __slots__ = ("map", "coeffs")
    _key_format = "%s"

    def __init__(self, m, coeffs=None):
        self.map = m
        self.coeffs = {k: c for k, c in coeffs.items() if c} if coeffs else {}

    @classmethod
    def _canonical(cls, m, coeffs):
        """A chain whose keys are already canonical: only the zeros are
        dropped, with no per-key work of a subclass constructor."""
        chain = object.__new__(cls)
        _SparseChain.__init__(chain, m, coeffs)
        return chain

    @classmethod
    def _nonzero(cls, m, coeffs):
        """A chain that takes over coeffs as they are: the keys must be
        canonical and every coefficient nonzero, as nothing is checked."""
        chain = object.__new__(cls)
        chain.map = m
        chain.coeffs = coeffs
        return chain

    def __getitem__(self, k):
        return self.coeffs.get(k, 0)

    def items(self):
        """(key, coefficient) pairs in ascending key order."""
        return sorted(self.coeffs.items())

    def is_zero(self):
        return not self.coeffs

    def norm(self):
        return sum(abs(c) for c in self.coeffs.values())

    def _combine(self, other, sign):
        _check_same_map(self, other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + sign * c
        return self._canonical(self.map, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._canonical(self.map, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, scalar):
        return self._canonical(self.map, {k: scalar * c for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.map is other.map
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((type(self).__name__, id(self.map), tuple(self.items())))

    def __repr__(self):
        term = "%+d*" + self._key_format
        body = " ".join(term % (c, k) for k, c in self.items()) or "0"
        return "%s(%s)" % (type(self).__name__, body)


class Chain0(_SparseChain):
    """Formal integer sum of vertices, each an int (not a bool) in 0..V-1."""

    __slots__ = ()

    def __init__(self, m, coeffs=None):
        _check_keys(coeffs, m.num_vertices, "vertex")
        super().__init__(m, coeffs)


class Chain2(_SparseChain):
    """Formal integer sum of faces, each an int (not a bool) in 0..F-1."""

    __slots__ = ()

    def __init__(self, m, coeffs=None):
        _check_keys(coeffs, m.num_faces, "face")
        super().__init__(m, coeffs)


class Chain1(_SparseChain):
    """Formal integer sum of half-edges with K[opp(h)] = -K[h].

    Coefficients are keyed by canonical half-edges; reading a
    non-canonical half-edge returns the negated stored value.  The
    constructor takes any half-edge, an int (not a bool) in 0..H-1.
    """

    __slots__ = ()
    _key_format = "h%d"

    def __init__(self, m, coeffs=None):
        _check_keys(coeffs, m.half_edge_count, "half-edge")
        out = {}
        if coeffs:
            for h, c in coeffs.items():
                if c:
                    hc = m.canonical(h)
                    out[hc] = out.get(hc, 0) + (c if hc == h else -c)
        super().__init__(m, out)

    def __getitem__(self, h):
        hc = self.map.canonical(h)
        c = self.coeffs.get(hc, 0)
        return c if hc == h else -c

    def is_simple(self):
        return all(abs(c) <= 1 for c in self.coeffs.values())


def _signed_orbit_sum(m, weighted_walks):
    """The 1-chain sum of c * h over every (walk, c) pair and every
    half-edge h of the walk: a face orbit gives a face boundary, a vertex
    rotation a vertex coboundary, a path its walk chain."""
    out = {}
    opp = m.opp
    for walk, c in weighted_walks:
        for h in walk:
            o = opp[h]
            if h < o:
                out[h] = out.get(h, 0) + c
            else:
                out[o] = out.get(o, 0) - c
    return Chain1._canonical(m, out)


def _head_minus_tail(k, head, chain_type):
    """Each c * h of a 1-chain adds c at head[h] and -c at head[opp(h)]:
    with m.tgt the vertex boundary, with m.left the face coboundary."""
    out = {}
    m = k.map
    opp, get = m.opp, out.get
    for h, c in k.coeffs.items():
        v, u = head[h], head[opp[h]]
        out[v] = get(v, 0) + c
        out[u] = get(u, 0) - c
    return chain_type(m, out)


def walk_chain(m, half_edges):
    """The 1-chain of a directed walk given as a half-edge sequence."""
    return _signed_orbit_sum(m, ((half_edges, 1),))


def face_boundary(m, x):
    """The 2-boundary of a single face x as a 1-chain."""
    return walk_chain(m, m.faces[x])


def boundary2(a):
    """Linear extension of face boundaries to 2-chains.  A chain on at
    least half the faces is summed edge by edge instead of face by face:
    lam[left(h)] - lam[left(opp(h))] on each canonical half-edge h, lam
    listing a's coefficient on every face."""
    m = a.map
    if 2 * len(a.coeffs) < m.num_faces:
        return _signed_orbit_sum(m, ((m.faces[x], c) for x, c in a.coeffs.items()))
    lam = [0] * m.num_faces
    for x, c in a.coeffs.items():
        lam[x] += c
    left, opp = m.left, m.opp
    return Chain1._canonical(
        m, {h: lam[left[h]] - lam[left[opp[h]]] for h in m.canonical_half_edges()}
    )


def coboundary2(b):
    """Linear extension of vertex coboundaries to 0-chains."""
    m = b.map
    return _signed_orbit_sum(m, ((m.rot[v], c) for v, c in b.coeffs.items()))


def boundary1(k):
    """The 0-chain of vertex excesses of a 1-chain."""
    return _head_minus_tail(k, k.map.tgt, Chain0)


def coboundary1(k):
    """The 2-chain of face excesses of a 1-chain."""
    return _head_minus_tail(k, k.map.left, Chain2)


def boundary0(b):
    """The sum of the coefficients of a 0-chain, or of a 2-chain."""
    return sum(b.coeffs.values())


def is_cycle(k):
    return boundary1(k).is_zero()


def is_cocycle(k):
    return coboundary1(k).is_zero()


def pair(f, k):
    """Bilinear pairing: sum over canonical half-edges of f[h] * K[h].

    When f is a flow and K a cocycle this is the net amount f sends
    across K.
    """
    _check_same_map(f, k)
    small, big = (f, k) if len(f.coeffs) <= len(k.coeffs) else (k, f)
    return sum(c * big.coeffs.get(h, 0) for h, c in small.coeffs.items())


def pair_plus(f, k):
    """One-sided pairing: sum of f[h] * K[h] over all half-edges with
    f[h] > 0 and K[h] > 0.

    Per canonical half-edge this contributes when the two coefficients
    share a sign (the negative-negative case is the opposite
    orientation's positive-positive one).
    """
    _check_same_map(f, k)
    small, big = (f, k) if len(f.coeffs) <= len(k.coeffs) else (k, f)
    total = 0
    for h, c in small.coeffs.items():
        d = big.coeffs.get(h, 0)
        if (c > 0 and d > 0) or (c < 0 and d < 0):
            total += c * d
    return total
