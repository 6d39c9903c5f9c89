"""Labeled framed link evaluation in the Kauffman skein at A = e^{2 pi i s/4r}.

Diagrams are extended PD codes: crossings X[a,b,c,d] list the four incident
arcs counterclockwise starting from the incoming under-strand, so the under
strand runs a -> c.  Components carry a label (an integer in 0..r-2, or
"omega") and an integer framing; the diagram itself is blackboard-framed.  A
kink slides onto a component's Jones-Wenzl box and acts there as the scalar
mu_k = (-1)^k A^{k(k+2)}, so framing f on a k-labeled component multiplies
the blackboard value by mu_k^f and is never drawn.

How strands run through the crossings is answered by one walk, ``_walk``:
it pairs the two ends of each arc once (``partner``, slot 4t + s to the
slot at the other end of its arc), checking that every arc appears twice,
and follows each strand on that pairing: a strand entering a crossing at
slot s leaves it at slot s + 2.  A ``LabeledLink`` is an immutable value,
checked and walked once, when it is built: the walk checks that each
component's arcs are one strand, and the link keeps it, pairing included,
with the map from each arc to its component that the check read
(``comp_of``).  A braid closure or a clasp splice reads its components
off the walk of its new crossings and hands that walk to the link it
builds.
The kept walk gives the orientations, the head occurrence of each arc
(where its strand enters the next crossing), the site of a clasp splice and
each component's passes in running order; no diagram is walked twice, and
evaluation walks nothing.

Before any labeling is swept, ``evaluate`` finds the diagram's Reidemeister
I kinks and II bigons once (``_reduction``), repeating as removals expose
new ones, on a copy of the kept pairing; a kink's sign moves into its
component's framing.  Each removal is a local identity of the state sum,
cable by cable (CONVENTIONS.md).  A diagram with neither, such as an
alternating one without kinks, costs one scan.  Every later step reads
the one reduced diagram (``_Reduced``), not the link: its framings, kept
crossings and each component's kept passes.

Evaluation cables k-labeled components into k parallel copies through one
Jones-Wenzl box, wired along their kept passes straight onto integer ports
(``_cabled_diagram``), resolves crossings by the Kauffman relation (the
A-smoothing of X[a,b,c,d] joins a-d and b-c), and replaces closed loops by
d = -A^2 - A^{-2}.  The sweep over the nodes keeps a linear combination of
frontier pairings with like states merged: a state is the tuple, by
frontier slot, of each open port's current partner, and a node resolves a
state through the join table of its local pattern, one per pattern in the
level memo, glued on the package's ``UnionFind`` by the rule of TL
composition.  Coefficients are packed residues in rings sized per segment
under the column rule (``linalg.next_segment``).

The reduced diagram splits (``_pieces``; CONVENTIONS.md gives the
rule).  A component with no kept crossing is a split unknot, valued in
closed form from the level memo (``_circle``): it is never cabled or
swept.  Components joined by kept crossings form a linked piece, swept
over its own labelings with every other component at label 0, and the
values of the circles and pieces multiply.

omega components expand as sum_k s_k (k-labeled), s_k = c d_k.  J = r - 2
is a simple current, so a component labelled J - k is the same link
labelled k times a signed power of A (``_fold``; CONVENTIONS.md gives the
identity): ``evaluate`` folds every labeling of a piece onto its canonical
one, with no label above J/2, and evaluates each canonical labeling once
(``_evaluate_labeled``).  The linking matrix that the fold reads is made
once per evaluation, off the link's walk (``linking_matrix``);
``z_invariant`` reads the one it takes the signature of.

In a labeling, a nonzero component that no kept crossing joins to a
nonzero strand is a split unknot too, valued by ``_circle``, so every
cabled component has a kept pass and no loop touches no node.  A sweep is
a function of the level and the cabled diagram alone, whose nodes are
numbered by crossing and component, never by arc, so each distinct
diagram is swept once per level, at most ``_SWEEP_MEMO_LIMIT`` kept
(``_sweeps``, keyed by the kinds and partner list as the cabler writes
them), and the framing monomials multiply the value read.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter

from .errors import DomainError, LinkFormatError, json_int, json_object
from .linalg import BoundedMemo, next_segment
from .recoupling import twist_coefficient
from .scalars import PackedRing, QuantumParams, Scalar, common_denominator
from .tl import jones_wenzl
from .unionfind import UnionFind

OMEGA = "omega"

LINK_SCHEMA_VERSION = 1
LINK_KEYS = ("version", "components", "crossings")
COMPONENT_KEYS = ("label", "framing", "arcs")


@dataclass(frozen=True)
class Component:
    label: object  # int label or the string "omega"
    framing: int = 0
    arcs: tuple = ()  # arc ids; empty = crossingless loop

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))


def _walk(crossings):
    """Pair the two ends of each arc, then follow each strand of the
    diagram once on that pairing: a strand that enters a crossing at slot s
    leaves it at slot s + 2 (mod 4).  LinkFormatError when an arc does not
    appear exactly twice.

    A strand that passes under somewhere is oriented to enter its first
    under-pass, in crossing order, at slot a; a strand that passes only over
    enters its lowest-index crossing at slot b.  Returns (strands, ob, head,
    consistent, partner): strands[j] lists a strand's arcs in running order
    from the arc it enters that crossing by, ob[t] is True when the over
    strand enters crossing t at slot b, head[arc] is the (crossing, slot)
    where the strand enters a crossing by that arc (slot 0 for the under
    strand, 1 or 3 for the over strand), consistent is False when some
    strand enters an under-pass at slot c, and partner[4t + s] is the slot
    at the other end of the arc at slot s of crossing t.
    """
    flat = list(itertools.chain.from_iterable(crossings))
    ends = {}
    for p, a in enumerate(flat):
        ends.setdefault(a, []).append(p)
    partner = [0] * len(flat)
    for a, at in ends.items():
        if len(at) != 2:
            raise LinkFormatError(f"arc {a} appears {len(at)} times; "
                                  "every arc appears exactly twice")
        p, q = at
        partner[p], partner[q] = q, p
    ob = [None] * len(crossings)
    strands, head, consistent = [], {}, True
    # under-passes in crossing order, then the over-passes left
    for p0 in [*range(0, len(flat), 4), *range(1, len(flat), 4)]:
        if flat[p0] in head:
            continue
        arcs, p = [], p0
        while not arcs or p != p0:
            t, s = p >> 2, p & 3
            arcs.append(flat[p])
            head[flat[p]] = (t, s)
            if s % 2:
                ob[t] = s == 1
            elif s == 2:
                consistent = False
            p = partner[p ^ 2]
        strands.append(arcs)
    return strands, ob, head, consistent, tuple(partner)


def _oriented(link):
    """The strands, orientations and head occurrences of `link`'s walk;
    LinkFormatError when some strand enters an under-pass at c."""
    if not link.walk[3]:
        raise LinkFormatError("a strand enters an under-pass at c: inconsistent orientations")
    return link.walk[:3]


@dataclass(frozen=True)
class LabeledLink:
    """A labeled framed link diagram, checked when it is built: every
    crossing lists four arcs, every arc appears twice (``_walk`` pairs the
    ends), and each component's arcs are exactly one strand's.  `walk` is
    the one ``_walk`` of the crossings that the check read, with its
    pairing of arc ends, and `comp_of` maps each arc to the index of its
    component, as the check read it; evaluation reads both and changes
    neither.  A diagram with no consistent orientation still builds;
    ``orientations`` raises on it."""
    components: tuple
    crossings: tuple  # tuples (a, b, c, d)
    walk: tuple = field(init=False, repr=False, compare=False)
    comp_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for x in self.crossings:
            if len(x) != 4:
                raise LinkFormatError(f"crossing {list(x)} must have 4 arcs")
        _settle(self, self.components, self.crossings, _walk(self.crossings))

    # ----- serialization -----

    def to_json(self):
        return {
            "version": LINK_SCHEMA_VERSION,
            "components": [{"label": c.label, "framing": c.framing, "arcs": list(c.arcs)}
                           for c in self.components],
            "crossings": [list(x) for x in self.crossings],
        }

    @staticmethod
    def from_json(obj) -> "LabeledLink":
        try:
            if json_object(obj, LINK_KEYS).get("version") != LINK_SCHEMA_VERSION:
                raise LinkFormatError(f"link schema version must be {LINK_SCHEMA_VERSION}, "
                                      f"got {obj.get('version', 'none')!r}")
            comps = []
            for c in obj["components"]:
                label = json_object(c, COMPONENT_KEYS)["label"]
                if label != OMEGA:
                    label = json_int(label)
                comps.append(Component(label, json_int(c.get("framing", 0)),
                                       [json_int(a) for a in c.get("arcs", [])]))
            crossings = [[json_int(a) for a in x] for x in obj["crossings"]]
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, LinkFormatError):
                raise
            raise LinkFormatError(f"malformed link JSON: {exc}") from exc
        return LabeledLink(comps, crossings)

    # ----- structure -----

    def orientations(self):
        """For each crossing t, whether the over strand enters at slot b
        (True) or slot d (False), under the orientation rule of ``_walk``.

        The under strand always runs a -> c; LinkFormatError is raised when
        no orientation of some strand makes it do so at every under-pass.
        The list is a new one; the link's walk is not handed out.
        """
        return list(_oriented(self)[1])

    def crossing_signs(self):
        """Sign of each crossing: +1 when the over strand enters at slot b."""
        return [1 if o else -1 for o in self.orientations()]


def _settle(link, components, crossings, made):
    """Give `link` its fields, once: `components`, `crossings` as tuples,
    `made`, their ``_walk``, and `comp_of`; then check that the
    components' arcs partition the arcs `made` entered and that each
    strand of `made` is one component's complete arc list."""
    for name, value in (("components", tuple(components)),
                        ("crossings", tuple(map(tuple, crossings))), ("walk", made)):
        object.__setattr__(link, name, value)
    declared = [a for c in link.components for a in c.arcs]
    if sorted(declared) != sorted(made[2]):
        raise LinkFormatError("component arc lists do not partition the crossing arcs")
    comp_of = {a: i for i, c in enumerate(link.components) for a in c.arcs}
    object.__setattr__(link, "comp_of", comp_of)
    for arcs in made[0]:
        i = comp_of[arcs[0]]
        if len(arcs) != len(link.components[i].arcs) or any(comp_of[a] != i for a in arcs):
            raise LinkFormatError(f"component {i} arcs do not match strand-following")


def _built(components, crossings, made) -> LabeledLink:
    """The link of `components` over `crossings`, which a builder read off
    `made`, the ``_walk`` of `crossings`: checked against `made` and keeping
    it, with no second walk.  This is the one path that hands a link a walk
    made outside it."""
    link = object.__new__(LabeledLink)
    _settle(link, components, crossings, made)
    return link


# ----------------------------------------------------------------------------
# linking matrix and signature


def linking_matrix(link: LabeledLink):
    """Integer linking matrix: off-diagonal lk(i,j), diagonal = framing field
    plus diagram self-writhe."""
    comp_of = link.comp_of
    n = len(link.components)
    out = [[0] * n for _ in range(n)]
    for sign, (a, b, _, _) in zip(link.crossing_signs(), link.crossings):
        i, j = comp_of[a], comp_of[b]
        out[i][j] += sign
        if i != j:
            out[j][i] += sign
    for i, row in enumerate(out):
        for j in range(n):
            if i == j:
                row[i] += link.components[i].framing
            elif row[j] % 2:
                raise LinkFormatError("odd crossing count between two components")
            else:
                row[j] //= 2
    return out


def signature(matrix) -> int:
    """Signature of a symmetric integer matrix, exactly, by fraction-free
    (Bareiss) congruence diagonalization.  The block left to diagonalize
    is held as d * S, d the last pivot (first 1) and S congruent to that
    block over the rationals.  A pivot p adds the sign of S's pivot p / d,
    and the next block, p times the Schur complement of S, is
    (p m_ij - m_ip m_pj) / d: a minor of the matrix, so the division is
    exact and entries stay as small as minors."""
    m = [list(row) for row in matrix]
    n = len(m)
    sig, d = 0, 1
    rows = list(range(n))
    while rows:
        # find a nonzero diagonal entry
        piv = next((i for i in rows if m[i][i] != 0), None)
        if piv is None:
            # find a nonzero off-diagonal pair; it contributes (+1, -1)
            pair = next(((i, j) for i in rows for j in rows
                         if i != j and m[i][j] != 0), None)
            if pair is None:
                break  # all-zero block: contributes nothing
            i, j = pair
            # congruence by adding row/col j to i creates a nonzero diagonal
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            continue
        p = m[piv][piv]
        sig += 1 if (p > 0) == (d > 0) else -1
        rows.remove(piv)
        for i in rows:
            for j in rows:
                m[i][j] = (p * m[i][j] - m[i][piv] * m[piv][j]) // d
        d = p
    return sig


# ----------------------------------------------------------------------------
# evaluation


def omega_weights(params: QuantumParams):
    """s_k = c d_k for k = 0..r-2; sum s_k^2 = 1 exactly.  The list is the
    level memo's: callers read it and never change it."""
    return params.cached(("omega_weights",), lambda: [
        params.c_symbol() * params.d_k(k) for k in range(params.r - 1)])


def _braid_crossing(cur, g, fresh):
    """The crossing of braid generator g (signed, 1-indexed) between the arcs
    cur[|g|-1] (left) and cur[|g|] (right); both positions move on to fresh
    arcs in `cur`."""
    i = abs(g)
    p, q = cur[i - 1], cur[i]
    p2, q2 = next(fresh), next(fresh)
    cur[i - 1], cur[i] = p2, q2
    if g > 0:
        # left strand under: p(SW) -> q2(NE); right strand over: q(SE) -> p2(NW)
        return [p, q, q2, p2]
    # right strand under: q(SE) -> p2(NW); left strand over: p(SW) -> q2(NE)
    return [q, q2, p2, p]


def _removal(partner, t):
    """The Reidemeister I or II move at crossing t of the diagram whose slot
    4u + s (slot s of crossing u) has its arc's other end at partner[4u + s]:
    ((t,), e) when one arc runs between adjacent slots s, s + 1 of t, a kink
    of sign e, +1 for s odd ((1, 2) or (3, 0)) and -1 for s even; ((t, u), 0)
    when the arcs at adjacent slots s, s + 1 of t run to slots j + 1, j of
    one crossing u != t with s = j + 1 (mod 2), a bigon whose one strand is
    under at both ends; None when neither holds."""
    base = 4 * t
    q = partner[base]
    for s in (3, 2, 1, 0):
        # the arcs at slots s, s + 1 of t end at slots j + 1, j of one crossing
        p = partner[base + s]
        if p >> 2 == q >> 2 and (p - q) % 4 == 1:
            if p == base + (s + 1) % 4:
                return (t,), 1 if s % 2 else -1
            if p >> 2 != t and (p - s) % 2 == 0:
                return (t, p >> 2), 0
        q = p
    return None


@dataclass
class _Reduced:
    """The diagram that evaluation reads, made once per link by
    ``_reduction``: `dropped`, the crossings of `link` run straight
    through; `framings`, each component's framing with the sign of each of
    its dropped kinks added; and `kept`, the other crossings in crossing
    order, each as (under component, over component, whether the over
    strand enters at slot b)."""
    link: LabeledLink = field(repr=False)
    dropped: set
    framings: list
    kept: list

    @cached_property
    def passes(self):
        """Each component's passes through kept crossings, (kept index,
        slot entered), in running order from its box site: the arc entering
        the lowest-index crossing it passes, dropped ones counted, its
        under-pass first.  Derived at the first read: a link reduced to
        circles only never derives them."""
        strands, _, head = self.link.walk[:3]
        kept = [t for t in range(len(self.link.crossings)) if t not in self.dropped]
        index = {t: x for x, t in enumerate(kept)}
        out = [[] for _ in self.framings]
        for arcs in strands:
            at = [head[a] for a in arcs]
            site = at.index(min(at))
            out[self.link.comp_of[arcs[0]]] = [(index[t], s) for t, s in at[site:] + at[:site]
                                               if t in index]
        return out


def _reduction(link: LabeledLink) -> _Reduced:
    """The reduced diagram of `link` (``_Reduced``).  A crossing is dropped
    by a Reidemeister I or II move (``_removal``), read on the diagram left
    by the moves before it, a copy of the pairing of arc ends that the
    link's walk keeps, until no move is left; each is an identity of
    the state sum, cable by cable (CONVENTIONS.md).  A kink repeats an arc
    at its crossing, and a bigon's under strand runs under at both ends,
    so a diagram with neither (an alternating one without kinks) is read
    no further.  LinkFormatError when `link` has no consistent
    orientation."""
    ob = _oriented(link)[1]
    crossings, comp_of = link.crossings, link.comp_of
    dropped, framings = set(), [c.framing for c in link.components]
    unders = [a for x in crossings for a in x[::2]]
    if len(set(unders)) != len(unders) or sum(map(len, map(set, crossings))) != len(unders) * 2:
        partner = list(link.walk[4])
        work = list(range(len(crossings)))
        while work:
            t = work.pop()
            if t in dropped or (move := _removal(partner, t)) is None:
                continue
            gone, sign = move
            if sign:
                framings[comp_of[crossings[t][0]]] += sign
            for u in gone:
                dropped.add(u)
                # run each pass of u straight through: the ends of its two
                # arcs are joined, unless they are one arc closed into a loop
                for a in (4 * u, 4 * u + 1):
                    pa, pb = partner[a], partner[a + 2]
                    if pa != a + 2:
                        partner[pa], partner[pb] = pb, pa
                        work += (pa >> 2, pb >> 2)
    kept = [(comp_of[a], comp_of[b], ob[t])
            for t, (a, b, _, _) in enumerate(crossings) if t not in dropped]
    return _Reduced(link, dropped, framings, kept)


def _cabled_diagram(reduced: _Reduced, labels):
    """The blackboard-framed cabled diagram of `reduced`, every label an
    integer in 0..r-2 and each nonzero component joined by a kept crossing
    to a nonzero strand (``_evaluate_labeled`` cables only those), as
    (kinds, partner) on integer ports.  kinds lists the nodes: "X" for each
    crossing of two cable strands, then k for the Jones-Wenzl box of each
    component labelled k >= 2, in component order.  Port base[x] + s is
    slot s of node x (4 per crossing; a box's k bottoms, then its k tops),
    and partner[p] is the port at the other end of port p's strand.

    A kept crossing of nonzero labels m, n is an m x n grid of "X" nodes,
    in crossing order; node (i, j), at offset i n + j, crosses under copy i
    with over copy j.  Each nonzero component is wired copy by copy through
    its kept passes from its box site (``_Reduced.passes``), its box on the
    site's arc; a pass whose partner is labelled 0 runs straight through.
    """
    kinds, grid = [], {}  # grid[x] = (first node, m, n, ob) of kept crossing x
    for x, (i, j, ob) in enumerate(reduced.kept):
        m, n = labels[i], labels[j]
        if m and n:
            grid[x] = (len(kinds), m, n, ob)
            kinds += ["X"] * (m * n)
    partner = [0] * (4 * len(kinds))

    def through(x, s, copy):
        """The (in, out) ports, in running order, of cable copy `copy` on
        its pass through kept crossing x entered at slot s."""
        first, m, n, ob = grid[x]
        if s == 0:
            nodes = range(first + copy * n, first + (copy + 1) * n)
            nodes = nodes if ob else reversed(nodes)
        else:
            nodes = range(first + copy, first + m * n, n)
            nodes = reversed(nodes) if s == 1 else nodes
        return [(4 * y + s, 4 * y + (s + 2) % 4) for y in nodes]

    for i, k in enumerate(labels):
        if not k:
            continue
        kept = [(x, s) for x, s in reduced.passes[i] if x in grid]
        box = len(partner)
        if k >= 2:
            kinds.append(k)
            partner += [0] * (2 * k)
        for copy in range(k):
            chain = [(box + copy, box + k + copy)] if k >= 2 else []
            for x, s in kept:
                chain += through(x, s, copy)
            for (_, out), (inp, _) in zip(chain, chain[1:] + chain[:1]):
                partner[out], partner[inp] = inp, out
    return kinds, partner


def _port_count(kind):
    return 4 if kind == "X" else 2 * kind


def _port_nodes(kinds):
    """The node of each port: port base[x] + s is slot s of node x."""
    return [x for x, kind in enumerate(kinds) for _ in range(_port_count(kind))]


def _greedy_order(kinds, partner):
    """Sweep order: each step places the node with the most ports paired to
    placed nodes or to itself, the lowest index among equals, found by a
    scan of the scores; a placed node's score is -1."""
    node_of = _port_nodes(kinds)
    score = [0] * len(kinds)
    others = [[] for _ in kinds]  # the node across each port, when another
    for idx, q in zip(node_of, partner):
        other = node_of[q]
        if idx == other:
            score[idx] += 1
        else:
            others[idx].append(other)
    order = []
    for _ in kinds:
        idx = score.index(max(score))
        score[idx] = -1
        order.append(idx)
        for nb in others[idx]:
            if score[nb] >= 0:
                score[nb] += 1
    return order


def _node_terms(params: QuantumParams, kind):
    """The resolutions of a crossing (kind "X") or a Jones-Wenzl box of k
    strands (kind k) as (L, mass, terms): terms are (pairs, nums), the slots
    each resolution joins and its multiplier's numerators over the node's
    one denominator L, and mass = sum_j |nums_j|_1 2^|pairs_j| bounds the l1
    mass the node multiplies a state by, each join closing at most one loop
    of mass |d|_1 = 2.  The A-smoothing of X[a,b,c,d] joins a-d and b-c."""
    def build():
        if kind == "X":
            terms = {((0, 3), (1, 2)): params.a_pow(1), ((0, 1), (2, 3)): params.a_pow(-1)}
        else:
            terms = {diag.pairs: coeff for diag, coeff in jones_wenzl(params, kind).terms.items()}
        den, nums = common_denominator(terms.values())
        mass = sum(sum(map(abs, m)) << len(pairs) for pairs, m in zip(terms, nums))
        return den, mass, list(zip(terms, nums))
    return params.cached(("sweep_terms", kind), build)


def _node_residues(params: QuantumParams, ring: PackedRing, kind):
    """The multipliers of `_node_terms` in `ring`, in order: scaled[j] is
    the residue of the multiplier times d^j, for j up to the number of
    joins."""
    def build():
        dval = ring.pack(common_denominator([params.loop_d()])[1][0])
        out = []
        for pairs, nums in _node_terms(params, kind)[2]:
            scaled = [ring.pack(nums)]
            for _ in pairs:
                scaled.append(scaled[-1] * dval % ring.n)
            out.append(tuple(scaled))
        return out
    return params.cached(("sweep_residues", kind, ring.n), build)


def _picker(slots):
    """The function that reads the tuple (key[i] for i in slots) off a
    tuple key in one call."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0))


def _join_table(params: QuantumParams, kind, static, sig):
    """The join table of a node of `kind` in one local pattern: static[j]
    is where port j is joined off the node, to the node's own port
    static[j] >= 0 (a static self-pairing), to an unplaced node's port
    (-1) or through the frontier (-2), and sig lists, for the frontier
    ports in order, the node's own port that a state joins each to, or
    None for a port of another node.  The outside partners of a state are
    its frontier ports' partners, then the ports of unplaced nodes, in
    that order.  The table lists, for each resolution of `_node_terms` in
    order, (loops, writes): the loops it closes, and (a, b) for each
    outside partner a that it joins to the outside partner b.  The key
    names no concrete port, so the level memo holds one table per
    pattern.

    A resolution glues by the rule of composition (``tl._compose_diagrams``):
    the pattern's own-port joins and the resolution's pairs are unions over
    the node's ports, each union inside one class closes a loop, and each
    class holds two ports joined outside, which it joins, or none."""
    def build():
        frontier = [j for j, s in enumerate(static) if s == -2]
        outside = {j: t for t, j in enumerate(frontier + [j for j, s in enumerate(static)
                                                          if s == -1])}
        local = list(static)  # the node's own port joined to each, or -1
        for j, own in zip(frontier, sig):
            local[j] = -1 if own is None else own
        ends = [j for j in outside if local[j] < 0]
        table = []
        for pairs, _ in _node_terms(params, kind)[2]:
            uf = UnionFind()
            for j, own in enumerate(local):
                if j < own:
                    uf.union(j, own)
            loops = sum(not uf.union(x, y) for x, y in pairs)
            classes = {}
            for j in ends:
                classes.setdefault(uf.find(j), []).append(outside[j])
            writes = []
            for a, b in classes.values():
                writes += [(a, b), (b, a)]
            table.append((loops, tuple(writes)))
        return table
    return params.cached(("sweep_join", kind, static, sig), build)


def _sweep(params: QuantumParams, kinds, partner) -> Scalar:
    """Resolve the nodes of a cabled diagram, at least one, on the integer
    ports of ``_cabled_diagram``, one at a time, keeping a linear
    combination of states.

    A frontier port is an unprocessed port whose `partner` is processed;
    every other port still has its `partner`.  Each frontier port holds
    one slot while it is on the frontier, and a state is the tuple, by
    slot, of the slot of each frontier port's current partner, None at a
    free slot.  Like states are merged.  The ports a node opens take the
    lowest free slots, then new ones at the top; the node's slots left
    free are cleared, and free slots at the top are cut.

    A node resolves a state through the join table of its local pattern
    (`_join_table`), which a step reads once per pattern: a resolution is
    a copy of the state, two writes per pair of outside partners that it
    joins, and one tuple.

    A state's coefficient is one integer modulo N = Phi_4r(2^b): x -> 2^b
    is a ring homomorphism Z[x]/Phi_4r -> Z/N (`scalars.PackedRing`), so the
    product with a resolution's multiplier, the merge of like states and
    the drop of zero states are integer *, + and % N.  Each node's
    multipliers are scaled to its lcm denominator L.  A node multiplies the
    total l1 mass of the states by at most its mass (`_node_terms`), so the
    sweep runs in segments under the column rule (`linalg.next_segment`):
    every state's reduced coefficients stay within
    B = mu * start mass * prod masses < 2^(b-2) of the segment's ring, so
    the zero test on the residue is exact, and at the end of a segment
    every state is decoded over the start denominator times the product of
    the L and packed again from the actual mass.  The first segment starts
    at the unit, with no decode.
    """
    order = _greedy_order(kinds, partner)
    base = list(itertools.accumulate(map(_port_count, kinds), initial=0))
    node_of = _port_nodes(kinds)
    terms = [_node_terms(params, kinds[idx]) for idx in order]
    growths = [mass for _, mass, _ in terms]
    left, ring, den, (unit,) = next_segment(params, growths)
    states = {(): unit}
    placed = [False] * len(kinds)
    slot = [0] * base[-1]  # the slot of each frontier port
    holes = []  # the free slots below the width, in order
    width = 0
    for at, idx in enumerate(order):
        if not left:
            left, ring, den, coeffs = next_segment(params, growths[at:],
                                                   (ring, den, states.values()))
            states = dict(zip(states, coeffs))
        left -= 1
        kind, first = kinds[idx], base[idx]
        den *= terms[at][0]
        scaled = _node_residues(params, ring, kind)
        # each port is joined off the node through the frontier (a state
        # holds the partner's slot), to the node's own port, or to an
        # unplaced node's port, which opens on the frontier
        on, opened, static = {}, [], []
        for j, q in enumerate(partner[first:base[idx + 1]]):
            other = node_of[q]
            if other == idx:
                static.append(q - first)
            elif placed[other]:
                static.append(-2)
                on[slot[first + j]] = j
            else:
                static.append(-1)
                opened.append(q)
        static = tuple(static)
        placed[idx] = True
        # the opened ports take the lowest free slots, then new ones at the
        # top; the node's slots left free are cleared, the top ones cut
        holes = sorted(holes + list(on))
        reused = min(len(opened), len(holes))
        old = width
        width += len(opened) - reused
        fresh = tuple(holes[:reused] + list(range(old, width)))
        for q, i in zip(opened, fresh):
            slot[q] = i
        holes = holes[reused:]
        while holes and holes[-1] == width - 1:
            holes.pop()
            width -= 1
        clear = [i for i in on if i in holes]
        pad = [None] * (width - old)
        reshape = width != old or clear
        take, own, apart = _picker(list(on)), on.keys(), (None,) * len(on)
        ops_of, n, new_states = {}, ring.n, {}
        for key, coeff in states.items():
            partners = take(key)
            sig = apart if own.isdisjoint(partners) else tuple(map(on.get, partners))
            ops = ops_of.get(sig)
            if ops is None:
                ops = ops_of[sig] = [(s[loops], writes) for s, (loops, writes) in zip(
                    scaled, _join_table(params, kind, static, sig))]
            outside = partners + fresh
            if reshape:
                key = [*key[:width], *pad]
                for i in clear:
                    key[i] = None
            for mult, writes in ops:
                row = list(key)
                for a, b in writes:
                    row[outside[a]] = outside[b]
                k2 = tuple(row)
                new_states[k2] = new_states.get(k2, 0) + coeff * mult
        states = {k: v for k, w in new_states.items() if (v := w % n)}
        if not states:
            break

    if set(states) - {()}:
        raise AssertionError("sweep did not close all strands")
    total = states.get((), 0)
    return ring.decode(total, den)


# a level's sweep values are emptied when they hold this many diagrams
_SWEEP_MEMO_LIMIT = 1 << 10


def _sweeps(params: QuantumParams):
    """The level's sweep values (``linalg.BoundedMemo``), shared by its
    roots: the key (kinds, partner), the tuples of a cabled diagram as
    ``_cabled_diagram`` writes it, maps to its ``_sweep``, swept from the
    key the first time it is read."""
    return params.cached(("sweeps",), lambda: BoundedMemo(lambda key: _sweep(params, *key),
                                                          _SWEEP_MEMO_LIMIT))


def _evaluate_labeled(params: QuantumParams, reduced: _Reduced, labels):
    """Evaluate the reduced diagram `reduced` with every component's label
    an integer (omega expanded).  A component of nonzero label that no
    kept crossing joins to a nonzero strand, its own included, is a split
    unknot, valued in closed form (``_circle``).  The others, each with a
    kept pass, are cabled (``_cabled_diagram``); their sweep is read from
    the level's sweep values (``_sweeps``), which sweep a missing diagram,
    and multiplied by mu_k^f for each of them."""
    linked = set()
    for i, j, _ in reduced.kept:
        if labels[i] and labels[j]:
            linked.add(i)
            linked.add(j)
    value, e = params.one(), 0
    for i, (k, f) in enumerate(zip(labels, reduced.framings)):
        if i in linked:
            # mu_k^f = (-1)^(kf) A^(k(k+2)f), and -1 = A^(2r)
            e += f * k * (k + 2 + 2 * params.r)
        elif k:
            value = value * _circle(params, k, f)
    if linked:
        kinds, partner = _cabled_diagram(
            reduced, [k if i in linked else 0 for i, k in enumerate(labels)])
        value = value * _sweeps(params)[tuple(kinds), tuple(partner)] * params.a_pow(e)
    return value


def _fold(labels, fixed, lk, r):
    """(canonical, e): `labels` with each label k above J/2, J = r - 2,
    turned to J - k, component by component, and the exponent e with
    W(labels) <labels> = A^e W(canonical) <canonical>, where W is the
    product of s_k over the omega components (those not `fixed`) and lk
    the linking matrix.  Turning component i from l to J - l multiplies
    by (-1)^(J + sum_m l_m lk(i, m)) A^(J(J+2) lk(i, i)), the labels l_m
    being the current ones; on an omega component s_l = (-1)^J s_(J-l)
    cancels the (-1)^J.  A^(2r) = -1 carries the sign."""
    j = r - 2
    labels, e = list(labels), 0
    for i, k in enumerate(labels):
        if 2 * k > j:
            odd = sum(l * x for l, x in zip(labels, lk[i])) + (j if fixed[i] else 0)
            e += j * (j + 2) * lk[i][i] + 2 * r * odd
            labels[i] = j - k
    return tuple(labels), e


def _pieces(reduced: _Reduced):
    """(pieces, circles): the components joined by the kept crossings of
    `reduced`, one sorted index list per linked piece, and the indices of
    the components with no kept crossing, the crossingless ones.  The
    pieces are grouped on the package's ``UnionFind`` only when two or
    more components have a kept crossing, and the grouping stops once its
    merges have joined them all."""
    pairs = {(i, j) for i, j, _ in reduced.kept}
    touched = set().union(*pairs)
    linked = sorted(touched)
    circles = [i for i in range(len(reduced.framings)) if i not in touched]
    if len(linked) <= 1:
        return ([linked] if linked else []), circles
    uf, spare = UnionFind(), len(linked) - 1
    for i, j in pairs:
        if i != j and uf.union(i, j):
            spare -= 1
            if not spare:
                return [linked], circles
    pieces = {}
    for i in linked:
        pieces.setdefault(uf.find(i), []).append(i)
    return list(pieces.values()), circles


def _circle(params: QuantumParams, label, framing) -> Scalar:
    """The value of a split unknot labelled `label` with framing f, from
    the level memo: d_k mu_k^f for an integer label k, and
    sum_k s_k d_k mu_k^f for omega."""
    def build():
        if label != OMEGA:
            return params.d_k(label) * twist_coefficient(params, label, framing)
        weights = omega_weights(params)
        return sum((weights[k] * params.d_k(k) * twist_coefficient(params, k, framing)
                    for k in range(params.r - 1)), params.zero())
    return params.cached(("circle", label, framing), build)


def _linked_value(params: QuantumParams, reduced: _Reduced, lk, piece):
    """The value of the linked piece of `reduced` whose components are
    `piece`, every other component held at label 0: each labeling of the
    piece is folded onto its canonical one (``_fold``), and each canonical
    labeling whose summed coefficient is nonzero is evaluated once
    (``_evaluate_labeled``)."""
    comps = reduced.link.components
    fixed = [c.label != OMEGA for c in comps]
    choices = [(0,)] * len(comps)
    for i in piece:
        choices[i] = (comps[i].label,) if fixed[i] else range(params.r - 1)
    folded = {}  # canonical labeling -> the exponents of A folded onto it
    for labels in itertools.product(*choices):
        canonical, e = _fold(labels, fixed, lk, params.r)
        folded.setdefault(canonical, []).append(e)
    weights = omega_weights(params)
    omegas = [i for i in piece if not fixed[i]]
    total = params.zero()
    for labels, powers in folded.items():
        coeff = sum(map(params.a_pow, powers), params.zero())
        if coeff.is_zero():
            continue
        for i in omegas:
            coeff = coeff * weights[labels[i]]
        total = total + coeff * _evaluate_labeled(params, reduced, labels)
    return total


def _evaluate(params: QuantumParams, link: LabeledLink, lk) -> Scalar:
    """``evaluate`` of a link whose labels are checked and whose linking
    matrix is `lk`, on the diagram left by its Reidemeister I and II moves
    (``_reduction``): the product of its crossingless components' closed
    forms (``_circle``) and its linked pieces' values
    (``_linked_value``)."""
    reduced = _reduction(link)
    pieces, circles = _pieces(reduced)
    total = params.one()
    for i in circles:
        total = total * _circle(params, link.components[i].label, reduced.framings[i])
    for piece in pieces:
        total = total * _linked_value(params, reduced, lk, piece)
    return total


def evaluate(params: QuantumParams, link: LabeledLink) -> Scalar:
    """Kauffman evaluation of a labeled framed link; omega components are
    expanded as sum_k s_k (component labeled k).  The diagram left by the
    link's Reidemeister I and II moves (``_reduction``), found once, splits
    into crossingless components, each a split unknot valued in closed
    form, and linked pieces, whose values multiply (CONVENTIONS.md).  Each
    piece's labelings are folded onto canonical ones, with no label above
    (r-2)/2 (``_fold``), and each canonical labeling whose summed
    coefficient is nonzero is evaluated once (``_evaluate_labeled``)."""
    for i, c in enumerate(link.components):
        if c.label != OMEGA and not 0 <= c.label <= params.r - 2:
            raise DomainError(f"component {i} label {c.label} outside 0..{params.r - 2}")
    return _evaluate(params, link, linking_matrix(link))


# ----------------------------------------------------------------------------
# builders


def closed_braid_link(word, n, labels=None, framings=None) -> LabeledLink:
    """The closure of a braid word on n strands as a LabeledLink.

    Positive generator i: the strand arriving at position i passes under,
    (right strand over left).  Start arc p is the arc at position p where
    the closure joins the top to the bottom.  Components are the strands of
    start arcs 1..n, each taken at its first start arc, with sorted arc
    lists; a start arc that crosses nothing is a bare circle.  Labels and
    framings are assigned in that order (defaults: label 1, framing 0).  A
    list given must hold one entry per component, or DomainError is raised.
    """
    cur = list(range(1, n + 1))  # arc id at each position
    nxt = itertools.count(n + 1)
    crossings = []
    for g in word:
        if not 1 <= abs(g) <= n - 1:
            raise DomainError(f"generator {g} out of range for {n} strands")
        crossings.append(_braid_crossing(cur, g, nxt))
    # close up: the final arc at each position merges with the start arc there
    rename = {a: p for p, a in enumerate(cur, start=1) if a != p}
    crossings = [[rename.get(a, a) for a in x] for x in crossings]
    made = _walk(crossings)
    strand_of = {a: j for j, arcs in enumerate(made[0]) for a in arcs}
    # one component per strand, at its first start arc; a start arc that
    # crosses nothing (key -p) is a bare circle
    order = dict.fromkeys(strand_of.get(p, -p) for p in range(1, n + 1))
    arc_lists = [sorted(made[0][j]) if j >= 0 else [] for j in order]
    count = len(arc_lists)
    for name, given in (("labels", labels), ("framings", framings)):
        if given is not None and len(given) != count:
            raise DomainError(f"{len(given)} {name} given for a closure "
                              f"with {count} components")
    comps = [Component(1 if labels is None else labels[j],
                       0 if framings is None else framings[j], arcs)
             for j, arcs in enumerate(arc_lists)]
    return _built(comps, crossings, made)


# ----------------------------------------------------------------------------
# surgery invariant and Kirby moves


def kirby_color_link(link: LabeledLink) -> LabeledLink:
    """The link with every component labeled omega, over the same diagram
    and its walk."""
    return _built([replace(c, label=OMEGA) for c in link.components], link.crossings, link.walk)


def z_invariant(params: QuantumParams, link: LabeledLink):
    """Evaluate the all-omega labeling of a surgery presentation.

    Returns (value, signature).  The value depends only on the surgered
    3-manifold and the signature of the linking matrix; presentations of the
    same manifold with signatures n and m satisfy
    value_1 * C^{m} == value_2 * C^{n}  for C the value of a +1-framed
    omega-labeled unknot.
    """
    lk = linking_matrix(link)
    return _evaluate(params, kirby_color_link(link), lk), signature(lk)


def _fresh_counter(link: LabeledLink):
    arcs = [a for x in link.crossings for a in x]
    return itertools.count(max(arcs) + 1 if arcs else 1)


def _clasp_after(link: LabeledLink, comp_idx: int, word, new_comps):
    """Rebuild `link` with the braid `word` on 1 + len(new_comps) strands
    spliced into one arc of component `comp_idx`: strand 1 of the tangle is
    that arc, and the remaining strands close up into the fresh components
    `new_comps` (Component prototypes; arcs filled in here).  The splice
    goes where the target's first arc u enters its next crossing, u's head
    occurrence in the walk of `link` (``_oriented``: an input with no
    consistent orientation raises LinkFormatError).

    The target keeps its old arcs first, so its first arc, where the next
    splice goes, is unchanged, then gains its strand's new arcs sorted (a
    bare-circle target starts at its fresh arc u); each new component gets
    its strand's sorted arcs, all read off the one walk of the new
    crossings.  A word that does not return strands 2.. to their own
    positions puts an arc in two components, and the output's check raises
    LinkFormatError.
    """
    fresh = _fresh_counter(link)
    crossings = [list(x) for x in link.crossings]
    target = link.components[comp_idx]
    if target.arcs:
        u = target.arcs[0]
        head = _oriented(link)[2][u]
    else:
        u, head = next(fresh), None
    cur = [u] + [next(fresh) for _ in new_comps]
    start = list(cur)
    for g in word:
        crossings.append(_braid_crossing(cur, g, fresh))
    # strands 2.. close on themselves; strand 1's far end takes the place
    # where u entered its next crossing (or closes on u for a bare circle)
    rename = {a: s for a, s in zip(cur[1:], start[1:]) if a != s}
    if head is None:
        rename[cur[0]] = u
    else:
        t, s = head
        crossings[t][s] = cur[0]
    crossings = [[rename.get(a, a) for a in x] for x in crossings]
    made = _walk(crossings)
    strand_of = {a: arcs for arcs in made[0] for a in arcs}
    comps = list(link.components)
    comps[comp_idx] = replace(target, arcs=target.arcs + tuple(
        sorted(set(strand_of.get(u, [])) - set(target.arcs))))
    comps += [Component(proto.label, proto.framing, sorted(strand_of.get(a, [])))
              for a, proto in zip(start[1:], new_comps)]
    return _built(comps, crossings, made)


@dataclass
class HandleSlide:
    """Slide component `slide` over the omega-labeled component `over`.

    Supported sites: `over` must be omega-labeled and split from the rest of
    the diagram (a crossingless loop)."""
    slide: int
    over: int


@dataclass
class BalancedStabilization:
    """Add a split pair of omega-labeled unknots framed +1 and -1."""


@dataclass
class CircumcisionPair:
    """Insert a 0-framed omega circle around one arc of component `around`
    (or split from everything if `around` is None) together with a 0-framed
    omega meridian of that circle."""
    around: object = None


def apply_move(link: LabeledLink, move) -> LabeledLink:
    """The diagram after a Kirby-type move; raises DomainError when the move
    is not applicable at the requested site."""
    if isinstance(move, BalancedStabilization):
        return split_union(link, unknot_link(OMEGA, 1), unknot_link(OMEGA, -1))
    if isinstance(move, CircumcisionPair):
        pair_protos = [Component(OMEGA, 0), Component(OMEGA, 0)]
        if move.around is None:
            chain = closed_braid_link([1, 1], 2, labels=[OMEGA, OMEGA])
            return split_union(link, chain)
        i = move.around
        if not 0 <= i < len(link.components):
            raise DomainError(f"no component {i}")
        # chain: strand -- C1 -- C2; C1 encircles the strand, C2 is a
        # meridian of C1
        return _clasp_after(link, i, [1, 1, 2, 2], pair_protos)
    if isinstance(move, HandleSlide):
        i, j = move.slide, move.over
        if i == j or not (0 <= i < len(link.components)) or not (0 <= j < len(link.components)):
            raise DomainError("handle slide needs two distinct components")
        over = link.components[j]
        if over.label != OMEGA:
            raise DomainError("can only slide over an omega-labeled component")
        if over.arcs:
            raise DomainError("slide site not supported: the slid-over "
                              "component must be split from the diagram")
        f2 = over.framing
        # sliding adds the framed pushoff of `over` to `slide`: the slide
        # component picks up framing f2 + 2 lk = f2 (lk = 0, split) and winds
        # f2 times through `over`, which is re-created clasped to it in its
        # own place
        if f2 == 0:
            return link
        word = [1] * (2 * f2) if f2 > 0 else [-1] * (-2 * f2)
        out = _clasp_after(link, i, word, [Component(over.label, over.framing)])
        comps = list(out.components)
        comps[j] = comps.pop()
        comps[i] = replace(comps[i], framing=comps[i].framing + f2)
        return _built(comps, out.crossings, out.walk)
    raise DomainError(f"unknown move {move!r}")


def verify_moves(params: QuantumParams, link: LabeledLink, moves) -> list[bool]:
    """Check invariance of the bracket under each move of an iterable,
    evaluating link once, before the first move is applied (and not at all
    for no move).  Balanced stabilization multiplies the value by
    C * C^{-1} = 1, so plain equality is the right check for every
    supported move."""
    out, before = [], None
    for move in moves:
        if before is None:
            before = evaluate(params, link)
        out.append(evaluate(params, apply_move(link, move)) == before)
    return out


def unknot_link(label=1, framing=0) -> LabeledLink:
    return LabeledLink([Component(label, framing)], [])


def split_union(*links) -> LabeledLink:
    """Disjoint union with arc ids shifted to stay unique."""
    comps, crossings = [], []
    offset = 0
    for lk in links:
        arcs = [a for x in lk.crossings for a in x]
        shift = offset - (min(arcs) - 1) if arcs else 0
        for c in lk.components:
            comps.append(Component(c.label, c.framing, [a + shift for a in c.arcs]))
        for x in lk.crossings:
            crossings.append([a + shift for a in x])
        if arcs:
            offset = max(a + shift for a in arcs)
    return LabeledLink(comps, crossings)
