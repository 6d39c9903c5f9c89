"""TQFT vector spaces from trivalent spines.

A handlebody H deformation-retracts onto a spine S; the vector space of the
boundary surface Y = dH has a basis indexed by labelings of the internal
edges of S by 0..r-2 that are admissible at every trivalent vertex (boundary
legs carry fixed labels).  The solid torus is the special case of a circle
spine, whose basis vector b_k is the core curve carrying the k-th projector.
A dimension is a count of the same enumeration with no basis built: `dim`
for one block, `block_dims` for every block of a spine at once, in one
pass with its legs free.
"""
from __future__ import annotations

from collections import Counter

from .errors import DomainError, SpineFormatError, json_int, json_list, json_object, json_str
from .recoupling import admissible, valid_label
from .scalars import QuantumParams

SPINE_SCHEMA_VERSION = 1
SPINE_KEYS = ("version", "edges", "vertices", "boundary")


class Spine:
    """Trivalent spine: vertices are triples of edge/leg names; every
    internal edge name appears exactly twice in vertex triples (possibly both
    at one vertex, a loop), every leg name exactly once.  Edge names listed
    in `edges` but absent from all vertices are free circles (the torus
    spine is one free circle and no vertices).  `boundary` assigns labels to
    legs.  A spine that breaks these rules raises SpineFormatError."""
    __slots__ = ("edges", "vertices", "boundary")

    def __init__(self, edges, vertices, boundary=None):
        self.edges, self.vertices = edges, vertices
        self.boundary = {} if boundary is None else boundary
        counts = {}
        for tri in self.vertices:
            if len(tri) != 3:
                raise SpineFormatError(f"vertex {tri} is not trivalent")
            for name in tri:
                counts[name] = counts.get(name, 0) + 1
        for e in self.edges:
            if counts.get(e, 0) not in (0, 2):
                raise SpineFormatError(f"internal edge {e} has {counts.get(e, 0)} ends")
        for leg in self.boundary:
            if counts.get(leg, 0) != 1:
                raise SpineFormatError(f"leg {leg} must appear at exactly one vertex")
        known = set(self.edges) | set(self.boundary)
        for name in counts:
            if name not in known:
                raise SpineFormatError(f"name {name} is neither a listed edge nor a leg")
        if len(set(self.edges)) != len(self.edges):
            raise SpineFormatError("duplicate edge names")

    def to_json(self):
        return {"version": SPINE_SCHEMA_VERSION, "edges": list(self.edges),
                "vertices": [list(t) for t in self.vertices],
                "boundary": dict(self.boundary)}

    @staticmethod
    def from_json(obj) -> "Spine":
        try:
            if json_object(obj, SPINE_KEYS).get("version") != SPINE_SCHEMA_VERSION:
                raise SpineFormatError(f"spine schema version must be {SPINE_SCHEMA_VERSION}, "
                                       f"got {obj.get('version', 'none')!r}")
            return Spine([json_str(e) for e in json_list(obj["edges"])],
                         [[json_str(x) for x in json_list(t)]
                          for t in json_list(obj["vertices"])],
                         {json_str(k): json_int(v)
                          for k, v in json_object(obj.get("boundary", {})).items()})
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SpineFormatError):
                raise
            raise SpineFormatError(f"malformed spine JSON: {exc}") from exc


def torus_spine() -> Spine:
    return Spine(edges=["a"], vertices=[])


def dumbbell_spine() -> Spine:
    """Genus-2 spine: two loops joined by a bar."""
    return Spine(edges=["x", "m", "y"], vertices=[["x", "x", "m"], ["y", "y", "m"]])


def comb_spine(labels) -> Spine:
    """Comb spine of the sphere with k >= 3 punctures labeled `labels`: legs
    p1..pk, internal edges m1..m(k-3); p1 and p2 meet m1, each m_i meets the
    next leg and m_(i+1), the last two legs meet the last edge (k = 3: one
    vertex).  At k = 4 it is the H spine pairing legs (1,2)(3,4).  Fewer
    legs raise SpineFormatError: a vertex would not be trivalent."""
    k = len(labels)
    legs = [f"p{i}" for i in range(1, k + 1)]
    edges = [f"m{i}" for i in range(1, k - 2)]
    middle = [[edges[i], legs[i + 2], edges[i + 1]] for i in range(k - 4)]
    verts = [legs] if k == 3 else [legs[:2] + edges[:1]] + middle + [legs[-2:] + edges[-1:]]
    return Spine(edges=edges, vertices=verts, boundary=dict(zip(legs, labels)))


def _labelings(params: QuantumParams, names, spine: Spine):
    """Every labeling of names by 0..r-2 that is admissible at each vertex
    of the spine, as tuples in the order of names, lexicographic; a vertex
    name not in names reads its boundary label.  Each vertex is checked
    once its last name is labeled (on the empty labeling when none is), and
    a labeling that fails is never extended."""
    index = {x: i for i, x in enumerate(names)}
    checks = [[] for _ in range(len(names) + 1)]
    for tri in spine.vertices:
        checks[max((index[x] + 1 for x in tri if x in index), default=0)].append(tri)
    out = [()]
    for depth, tris in enumerate(checks):
        if depth:
            out = [lab + (k,) for lab in out for k in range(params.r - 1)]
        for tri in tris:
            out = [lab for lab in out if admissible(
                params, *[lab[index[x]] if x in index else spine.boundary[x] for x in tri])]
    return out


def _check_boundary(params: QuantumParams, spine: Spine):
    for lab in spine.boundary.values():
        if not valid_label(params, lab):
            raise DomainError(f"boundary label {lab} outside 0..{params.r - 2}")


def basis(params: QuantumParams, spine: Spine):
    """All admissible edge labelings, lexicographic in the order of
    spine.edges (`_labelings`); each is a dict edge name -> label, keyed in
    that order."""
    _check_boundary(params, spine)
    return [dict(zip(spine.edges, lab)) for lab in _labelings(params, spine.edges, spine)]


def dim(params: QuantumParams, spine: Spine) -> int:
    """The number of admissible edge labelings (`_labelings`), counted
    with no basis built."""
    _check_boundary(params, spine)
    return len(_labelings(params, spine.edges, spine))


def block_dims(params: QuantumParams, spine: Spine):
    """The dimension of every boundary-label block of the spine, as
    {leg labels: dim} with the legs in spine.boundary order: one pass of
    `_labelings` over the edges and the legs, with the legs free (their
    labels in spine.boundary are not read), counted per leg labeling.  A
    block of dimension 0 is absent."""
    legs = len(spine.edges)
    return Counter(lab[legs:] for lab in _labelings(params, [*spine.edges, *spine.boundary], spine))
