"""Integer chain groups on a combinatorial map and their operators.

0-chains live on vertices, 1-chains on half-edges, 2-chains on faces.
A 1-chain stores coefficients on canonical half-edges only and is
antisymmetric: K[opp(h)] = -K[h].  All coefficients are plain Python
integers, so arithmetic is exact at any magnitude.
"""

from __future__ import annotations

from .errors import MapMismatch


def _check_same_map(a, b):
    if a.map is not b.map:
        raise MapMismatch("chains live on different maps")


class _SparseChain:
    """Shared behaviour of vertex- and face-indexed chains."""

    __slots__ = ("map", "coeffs")

    def __init__(self, m, coeffs=None):
        self.map = m
        self.coeffs = {}
        if coeffs:
            for k, c in coeffs.items():
                if c:
                    self.coeffs[k] = c

    def __getitem__(self, k):
        return self.coeffs.get(k, 0)

    def items(self):
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
        return type(self)(self.map, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return type(self)(self.map, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, scalar):
        return type(self)(self.map, {k: scalar * c for k, c in self.coeffs.items()})

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
        body = " ".join("%+d*%s" % (c, k) for k, c in self.items()) or "0"
        return "%s(%s)" % (type(self).__name__, body)


class Chain0(_SparseChain):
    """Formal integer sum of vertices."""


class Chain2(_SparseChain):
    """Formal integer sum of faces."""


class Chain1:
    """Formal integer sum of half-edges with K[opp(h)] = -K[h].

    Coefficients are keyed by canonical half-edges; reading a
    non-canonical half-edge returns the negated stored value.
    """

    __slots__ = ("map", "coeffs")

    def __init__(self, m, coeffs=None):
        self.map = m
        self.coeffs = {}
        if coeffs:
            for h, c in coeffs.items():
                if not c:
                    continue
                hc = m.canonical(h)
                if hc == h:
                    self.coeffs[hc] = self.coeffs.get(hc, 0) + c
                else:
                    self.coeffs[hc] = self.coeffs.get(hc, 0) - c
        for h in [h for h, c in self.coeffs.items() if not c]:
            del self.coeffs[h]

    def __getitem__(self, h):
        hc = self.map.canonical(h)
        c = self.coeffs.get(hc, 0)
        return c if hc == h else -c

    def items(self):
        """(canonical half-edge, coefficient) pairs, ascending ids."""
        return sorted(self.coeffs.items())

    def is_zero(self):
        return not self.coeffs

    def norm(self):
        return sum(abs(c) for c in self.coeffs.values())

    def is_simple(self):
        return all(abs(c) <= 1 for c in self.coeffs.values())

    def _combine(self, other, sign):
        _check_same_map(self, other)
        out = dict(self.coeffs)
        for h, c in other.coeffs.items():
            out[h] = out.get(h, 0) + sign * c
        return Chain1(self.map, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return Chain1(self.map, {h: -c for h, c in self.coeffs.items()})

    def __mul__(self, scalar):
        return Chain1(self.map, {h: scalar * c for h, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Chain1)
            and self.map is other.map
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(("Chain1", id(self.map), tuple(self.items())))

    def __repr__(self):
        body = " ".join("%+d*h%d" % (c, h) for h, c in self.items()) or "0"
        return "Chain1(%s)" % body


def unit_chain1(m, h, coeff=1):
    """The 1-chain coeff * h."""
    return Chain1(m, {h: coeff})


def walk_chain(m, half_edges):
    """The 1-chain of a directed walk given as a half-edge sequence."""
    chain = {}
    for h in half_edges:
        hc = m.canonical(h)
        chain[hc] = chain.get(hc, 0) + (1 if hc == h else -1)
    return Chain1(m, chain)


def face_boundary(m, x):
    """The 2-boundary of a single face x as a 1-chain."""
    return walk_chain(m, m.faces[x])


def vertex_coboundary(m, v):
    """The 2-coboundary of a single vertex v as a 1-chain."""
    return walk_chain(m, m.rot[v])


def boundary2(a):
    """Linear extension of face boundaries to 2-chains."""
    out = {}
    m = a.map
    for x, cx in a.coeffs.items():
        for h in m.faces[x]:
            hc = m.canonical(h)
            out[hc] = out.get(hc, 0) + (cx if hc == h else -cx)
    return Chain1(m, out)


def boundary1(k):
    """The 0-chain of vertex excesses of a 1-chain."""
    out = {}
    m = k.map
    for h, c in k.coeffs.items():
        v, u = m.tgt[h], m.tgt[m.opp[h]]
        out[v] = out.get(v, 0) + c
        out[u] = out.get(u, 0) - c
    return Chain0(m, out)


def boundary0(b):
    return sum(b.coeffs.values())


def coboundary2(b):
    """Linear extension of vertex coboundaries to 0-chains."""
    out = {}
    m = b.map
    for v, cv in b.coeffs.items():
        for h in m.rot[v]:
            hc = m.canonical(h)
            out[hc] = out.get(hc, 0) + (cv if hc == h else -cv)
    return Chain1(m, out)


def coboundary1(k):
    """The 2-chain of face excesses of a 1-chain."""
    out = {}
    m = k.map
    for h, c in k.coeffs.items():
        x, y = m.left[h], m.left[m.opp[h]]
        out[x] = out.get(x, 0) + c
        out[y] = out.get(y, 0) - c
    return Chain2(m, out)


def coboundary0(a):
    return sum(a.coeffs.values())


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
