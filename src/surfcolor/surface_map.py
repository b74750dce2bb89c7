"""Combinatorial maps: 2-cell embeddings of graphs in orientable surfaces.

An embedding is encoded by half-edges.  Half-edge ids are 0..2k-1; ``opp``
is a fixed-point-free involution pairing the two halves of each edge;
``tgt`` sends a half-edge to the vertex it points into; and every vertex
carries the counterclockwise cyclic sequence of half-edges directed into
it.  Faces are the orbits of the face-tracing permutation

    sigma(h) = successor of opp(h) in the rotation at tgt(opp(h)),

and ``left(h)`` is the face whose orbit contains h.  The Euler genus is
derived from |V| - |E| + |F| = 2 - g and must come out even (orientable).

A map stores exactly these arrays (``opp``, ``tgt``, ``rot``, ``left``,
``faces``) and its Euler genus; of what derives from them, only the out
lists of the map (``out_arcs``) and of its dual (``dual_arcs``) and the
canonical half-edges (``canonical_half_edges``) are kept, each built on
its first use.  Both out lists are built by one builder, with the heads
tgt and left: each lists (head, arc) pairs in ascending arc id.
``dual`` swaps the roles of the arrays and builds none anew: it shares
every array of m, and m's canonical half-edges too.
"""

from __future__ import annotations

from . import errors


class CombinatorialMap:
    """Immutable 2-cell embedding.  Build with :func:`build_map`."""

    __slots__ = (
        "half_edge_count",
        "opp",
        "tgt",
        "rot",
        "left",
        "faces",
        "euler_genus",
        "_dual_arcs",
        "_out_arcs",
        "_canonical_half_edges",
    )

    def __init__(self, half_edge_count, opp, tgt, rot, left, faces, euler_genus):
        self.half_edge_count = half_edge_count
        self.opp = opp              # list: half-edge -> half-edge
        self.tgt = tgt              # list: half-edge -> vertex
        self.rot = rot              # list of lists: vertex -> CCW cycle of incoming half-edges
        self.left = left            # list: half-edge -> face
        self.faces = faces          # list of lists: face -> orbit of sigma, cyclic
        self.euler_genus = euler_genus
        self._dual_arcs = None      # built by dual_arcs() on first use
        self._out_arcs = None       # built by out_arcs() on first use
        self._canonical_half_edges = None  # built by canonical_half_edges()

    @property
    def num_vertices(self):
        return len(self.rot)

    @property
    def num_edges(self):
        return self.half_edge_count // 2

    @property
    def num_faces(self):
        return len(self.faces)

    def half_edges(self):
        return range(self.half_edge_count)

    def canonical(self, h):
        """The canonical member of the pair {h, opp(h)} (the smaller id;
        under the standard pairing opp(2i) = 2i+1 this is the even one)."""
        o = self.opp[h]
        return h if h < o else o

    def canonical_half_edges(self):
        """The canonical half-edges in ascending id, built on the first
        call and kept; like the out lists, the list is shared, so callers
        leave it as it is."""
        if self._canonical_half_edges is None:
            self._canonical_half_edges = [h for h, o in enumerate(self.opp) if h < o]
        return self._canonical_half_edges

    def degree(self, v):
        return len(self.rot[v])

    def dual_arcs(self):
        """The dual's out lists, built on the first call and kept:
        out[left(opp(h))] holds (left(h), h) in ascending h."""
        if self._dual_arcs is None:
            self._dual_arcs = _out_lists(self.opp, self.left, len(self.faces))
        return self._dual_arcs

    def out_arcs(self):
        """The out lists, built on the first call and kept:
        out[tgt(opp(h))] holds (tgt(h), h) in ascending h."""
        if self._out_arcs is None:
            self._out_arcs = _out_lists(self.opp, self.tgt, len(self.rot))
        return self._out_arcs

    def face_lengths(self):
        return [len(orbit) for orbit in self.faces]

    def __repr__(self):
        return "CombinatorialMap(V=%d, E=%d, F=%d, genus=%d)" % (
            self.num_vertices,
            self.num_edges,
            self.num_faces,
            self.euler_genus,
        )


def _out_lists(opp, head, n):
    """Out lists over nodes 0..n-1 of the arcs h from head(opp(h)) to
    head(h): out[head(opp(h))] holds (head(h), h) in ascending h."""
    out = [[] for _ in range(n)]
    for h, o in enumerate(opp):
        out[head[o]].append((head[h], h))
    return out


def build_map(rotations, opp=None):
    """Build and validate a combinatorial map.

    ``rotations`` is read once, in vertex id order; entry v is the
    counterclockwise cyclic sequence of half-edges with tgt = v.  ``opp``
    is the opposition pairing as a sequence or mapping; if omitted,
    opp(2i) = 2i+1 is assumed.  Every half-edge id in either must be an
    int; a bool, which would index as 0 or 1, is not one.

    Raises NotInvolution, DanglingHalfEdge, Disconnected or OddEulerGenus.
    """
    rot = [list(cyc) for cyc in rotations]
    n = sum(len(cyc) for cyc in rot)
    if n % 2 != 0:
        raise errors.DanglingHalfEdge("odd number of half-edges")

    if opp is None:
        opp_list = [h ^ 1 for h in range(n)]
    else:
        opp_list = []
        for h in range(n):
            try:
                opp_list.append(opp[h])
            except (IndexError, KeyError):
                raise errors.NotInvolution("opp(%d) is missing" % h) from None
        for h in range(n):
            o = opp_list[h]
            if type(o) is not int:
                raise errors.NotInvolution("opp(%d) = %r is not an integer" % (h, o))
            if not (0 <= o < n):
                raise errors.NotInvolution("opp(%d) = %r out of range" % (h, o))
            if o == h:
                raise errors.NotInvolution("opp(%d) = %d is a fixed point" % (h, h))
            if opp_list[o] != h:
                raise errors.NotInvolution("opp(opp(%d)) = %d != %d" % (h, opp_list[o], h))

    # the n entries are n distinct half-edges of 0..n-1, so every
    # half-edge lies in one rotation
    tgt = [-1] * n
    rot_index = [-1] * n
    for v, cyc in enumerate(rot):
        for i, h in enumerate(cyc):
            if type(h) is not int:
                raise errors.DanglingHalfEdge("half-edge %r is not an integer" % (h,))
            if not (0 <= h < n):
                raise errors.DanglingHalfEdge("half-edge %r out of range 0..%d" % (h, n - 1))
            if tgt[h] != -1:
                raise errors.DanglingHalfEdge("half-edge %d appears in two rotations" % h)
            tgt[h] = v
            rot_index[h] = i

    num_vertices = len(rot)
    if num_vertices == 0:
        raise errors.Disconnected("empty map")

    # connectivity of the underlying graph
    seen = [False] * num_vertices
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for h in rot[v]:
            w = tgt[opp_list[h]]
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        raise errors.Disconnected("underlying graph is not connected")

    # trace faces: orbits of sigma
    left = [-1] * n
    faces = []
    for h0 in range(n):
        if left[h0] != -1:
            continue
        orbit = []
        h = h0
        while left[h] == -1:
            left[h] = len(faces)
            orbit.append(h)
            o = opp_list[h]
            cyc = rot[tgt[o]]
            h = cyc[(rot_index[o] + 1) % len(cyc)]
        faces.append(orbit)
    if n == 0:
        # the edgeless single-vertex map is drawn on the sphere with one
        # face whose boundary walk is empty
        faces = [[]]

    genus = 2 - (num_vertices - n // 2 + len(faces))
    if genus < 0 or genus % 2 != 0:
        raise errors.OddEulerGenus(
            "computed Euler genus %d; only orientable surfaces (even genus) supported" % genus
        )

    return CombinatorialMap(n, opp_list, tgt, rot, left, faces, genus)


def dual(m):
    """The dual map: vertices are the faces of m, sharing half-edge ids.

    The dual is m with the roles of vertices and faces swapped: its tgt
    and rot are m.left and m.faces, its left is m.tgt, and its face
    orbits are m's vertex rotations, because the dual's face tracing
    sends h to its successor in its rotation in m.  Nothing reads where
    a face orbit starts.  The dual has m's opp, so its canonical
    half-edges are m's too.  Maps are immutable, so every list is shared
    with m, and dual(dual(m)) has m's own lists.
    """
    d = CombinatorialMap(
        m.half_edge_count, m.opp, m.left, m.faces, m.tgt, m.rot, m.euler_genus
    )
    d._canonical_half_edges = m.canonical_half_edges()
    return d


class FaceProfile:
    """Per-face counts of feasible flow excesses for an odd modulus m.

    For a face of length n, q counts the integers i with m | i,
    i = n (mod 2) and |i| <= n, and b is the largest such i (0 when no i
    qualifies).  q_star is the product of the per-face q values and
    b_star is 1 plus the sum of the per-face b values.
    """

    __slots__ = ("q_star", "b_star")

    def __init__(self, q_star, b_star):
        self.q_star = q_star
        self.b_star = b_star


def face_candidates(n, m):
    """Sorted list of integers i with m | i, i = n (mod 2), |i| <= n."""
    out = []
    k0 = -(n // m)
    for k in range(k0, n // m + 1):
        i = k * m
        if (i - n) % 2 == 0:
            out.append(i)
    return out


def check_modulus(modulus):
    """Raise unless the modulus, the length of the target cycle, is an odd
    integer and at least 3; a bool is not an integer here."""
    if type(modulus) is not int:
        raise errors.SurfcolorError("modulus must be an integer, got %r" % (modulus,))
    if modulus % 2 == 0:
        raise errors.EvenModulus("modulus must be odd, got %d" % modulus)
    if modulus < 3:
        raise errors.ModulusTooSmall("modulus must be >= 3, got %d" % modulus)


def face_profile(m, modulus):
    """Face profile of a map for an odd modulus >= 3."""
    check_modulus(modulus)
    q_star, b_star = 1, 1
    for n in m.face_lengths():
        cand = face_candidates(n, modulus)
        q_star *= len(cand)
        b_star += cand[-1] if cand else 0
    return FaceProfile(q_star, b_star)


def save_surfmap(m):
    """Serialize to SURF-MAP v1 text.

    The format fixes opp(2i) = 2i+1, so half-edges are relabelled to that
    pairing first (edges ordered by their smaller half-edge id); a map
    already using the standard pairing round-trips byte-identically.
    """
    new_id = [-1] * m.half_edge_count
    next_edge = 0
    for h in range(m.half_edge_count):
        if new_id[h] == -1:
            new_id[h] = 2 * next_edge
            new_id[m.opp[h]] = 2 * next_edge + 1
            next_edge += 1
    lines = ["surfmap 1", "halfedges %d" % m.half_edge_count]
    for v, cyc in enumerate(m.rot):
        lines.append("vertex %d: %s" % (v, " ".join(str(new_id[h]) for h in cyc)))
    return "\n".join(lines) + "\n"


def load_surfmap(text):
    """Parse SURF-MAP v1 text and build the map."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or lines[0].split() != ["surfmap", "1"]:
        raise errors.SurfMapFormatError("missing 'surfmap 1' header")
    if len(lines) < 2 or lines[1].split()[0] != "halfedges":
        raise errors.SurfMapFormatError("missing 'halfedges' line")
    parts = lines[1].split()
    if len(parts) != 2:
        raise errors.SurfMapFormatError("malformed halfedges line: %r" % lines[1])
    try:
        n = int(parts[1])
    except ValueError:
        raise errors.SurfMapFormatError("bad half-edge count: %r" % parts[1])
    if n < 0 or n % 2 != 0:
        raise errors.SurfMapFormatError("half-edge count must be even and >= 0")

    rotations = {}
    for line in lines[2:]:
        head, _, tail = line.partition(":")
        head_parts = head.split()
        if not head_parts or head_parts[0] != "vertex":
            raise errors.SurfMapFormatError("unexpected line: %r" % line)
        if len(head_parts) != 2:
            raise errors.SurfMapFormatError("malformed vertex line: %r" % line)
        try:
            vid = int(head_parts[1])
        except ValueError:
            raise errors.SurfMapFormatError("bad vertex id: %r" % head_parts[1])
        if vid in rotations:
            raise errors.SurfMapFormatError("duplicate vertex %d" % vid)
        try:
            rotations[vid] = [int(tok) for tok in tail.split()]
        except ValueError:
            raise errors.SurfMapFormatError("bad half-edge id on vertex %d" % vid)
    if sorted(rotations) != list(range(len(rotations))):
        raise errors.SurfMapFormatError("vertex ids must be 0..%d" % (len(rotations) - 1))
    rot = [rotations[v] for v in range(len(rotations))]
    if sum(len(c) for c in rot) != n:
        raise errors.SurfMapFormatError(
            "rotations list %d half-edges, header says %d" % (sum(len(c) for c in rot), n)
        )
    return build_map(rot)
