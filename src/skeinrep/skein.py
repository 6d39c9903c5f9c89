"""Labeled framed link evaluation in the Kauffman skein at A = e^{2 pi i s/4r}.

Diagrams are extended PD codes: crossings X[a,b,c,d] list the four incident
arcs counterclockwise starting from the incoming under-strand, so the under
strand runs a -> c.  Components carry a label (an integer in 0..r-2, or
"omega") and an integer framing; the diagram itself is blackboard-framed and
the framing integer is realized as explicit kinks at evaluation time.

Evaluation resolves crossings by the Kauffman relation (the A-smoothing of
X[a,b,c,d] joins a-d and b-c), cables k-labeled components into k parallel
copies through one Jones-Wenzl box, and replaces closed loops by
d = -A^2 - A^{-2}.  The sweep over crossings keeps a linear combination of
frontier pairings with like states merged: a state is keyed by the ports
still open whose diagram partner has been resolved, and maps each to its
current partner.  omega components expand as sum_k s_k (k-labeled),
s_k = c d_k.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import QuantumParams, Scalar
from .tl import jones_wenzl
from .unionfind import UnionFind


class LinkFormatError(ValueError):
    """Malformed diagram code."""


class DomainError(ValueError):
    """Structurally valid input outside the supported domain."""


OMEGA = "omega"

LINK_SCHEMA_VERSION = 1


@dataclass
class Component:
    label: object  # int label or the string "omega"
    framing: int = 0
    arcs: list = field(default_factory=list)  # arc ids; empty = crossingless loop


@dataclass
class LabeledLink:
    components: list
    crossings: list  # list of [a, b, c, d]

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
            if obj.get("version", LINK_SCHEMA_VERSION) != LINK_SCHEMA_VERSION:
                raise LinkFormatError(f"unsupported link schema version {obj.get('version')}")
            comps = []
            for c in obj["components"]:
                label = c["label"]
                if label != OMEGA:
                    label = int(label)
                comps.append(Component(label, int(c.get("framing", 0)),
                                       [int(a) for a in c.get("arcs", [])]))
            crossings = [[int(a) for a in x] for x in obj["crossings"]]
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, LinkFormatError):
                raise
            raise LinkFormatError(f"malformed link JSON: {exc}") from exc
        link = LabeledLink(comps, crossings)
        link.validate()
        return link

    def pretty(self) -> str:
        lines = []
        for i, c in enumerate(self.components):
            lines.append(f"component {i}: label={c.label} framing={c.framing} arcs={c.arcs}")
        for t, x in enumerate(self.crossings):
            lines.append(f"X{t}[{x[0]},{x[1]},{x[2]},{x[3]}]")
        return "\n".join(lines)

    # ----- structure -----

    def validate(self):
        for x in self.crossings:
            if len(x) != 4:
                raise LinkFormatError(f"crossing {x} must have 4 arcs")
        counts = {}
        for x in self.crossings:
            for a in x:
                counts[a] = counts.get(a, 0) + 1
        for a, n in counts.items():
            if n != 2:
                raise LinkFormatError(f"arc {a} appears {n} times; every arc appears exactly twice")
        declared = [a for c in self.components for a in c.arcs]
        if sorted(declared) != sorted(counts):
            raise LinkFormatError("component arc lists do not partition the crossing arcs")
        # each component's arcs must form the orbits of strand-following
        comp_of = {}
        for i, c in enumerate(self.components):
            for a in c.arcs:
                if a in comp_of:
                    raise LinkFormatError(f"arc {a} listed in two components")
                comp_of[a] = i
        strands = UnionFind()
        for a, b, c, d in self.crossings:
            strands.union(a, c)
            strands.union(b, d)
        for a in counts:
            if comp_of[strands.find(a)] != comp_of[a]:
                raise LinkFormatError("component arc lists do not match strand-following")
        for i, c in enumerate(self.components):
            roots = {strands.find(a) for a in c.arcs}
            if len(roots) > 1:
                raise LinkFormatError(f"component {i} arcs form {len(roots)} separate strands")

    def arc_component(self):
        out = {}
        for i, c in enumerate(self.components):
            for a in c.arcs:
                out[a] = i
        return out

    def orientations(self):
        """For each crossing t, decide whether the over strand enters at slot
        b (True) or slot d (False); consistent strand orientations exist.

        The under strand always runs a -> c.  Returns the list ob[t].
        """
        occ = {}
        for t, x in enumerate(self.crossings):
            for s, a in enumerate(x):
                occ.setdefault(a, []).append((t, s))
        ob = [None] * len(self.crossings)

        def occ_role(t, s):
            """'head' if the arc ends at this occurrence, 'tail' if it
            starts here; None if still undecided."""
            if s == 0:
                return "head"
            if s == 2:
                return "tail"
            if ob[t] is None:
                return None
            if s == 1:
                return "head" if ob[t] else "tail"
            return "tail" if ob[t] else "head"

        changed = True
        while changed:
            changed = False
            for a, places in occ.items():
                (t1, s1), (t2, s2) = places
                r1, r2 = occ_role(t1, s1), occ_role(t2, s2)
                if r1 is not None and r2 is not None:
                    if r1 == r2 and (t1, s1) != (t2, s2):
                        raise LinkFormatError(f"arc {a} has two {r1}s: inconsistent orientations")
                    continue
                if r1 is None and r2 is None:
                    continue
                # exactly one undecided; it sits at an over slot
                (tu, su), known = ((t1, s1), r2) if r1 is None else ((t2, s2), r1)
                want = "tail" if known == "head" else "head"
                ob[tu] = (want == "head") if su == 1 else (want == "tail")
                changed = True
            if not changed:
                rest = [t for t in range(len(self.crossings)) if ob[t] is None]
                if rest:
                    ob[rest[0]] = True
                    changed = True
        return ob

    def crossing_signs(self):
        """Sign of each crossing: +1 when the over strand enters at slot b."""
        return [1 if o else -1 for o in self.orientations()]


# ----------------------------------------------------------------------------
# linking matrix and signature


def linking_matrix(link: LabeledLink):
    """Integer linking matrix: off-diagonal lk(i,j), diagonal = framing field
    plus diagram self-writhe."""
    comp_of = link.arc_component()
    n = len(link.components)
    raw = [[0] * n for _ in range(n)]
    signs = link.crossing_signs()
    for t, (a, b, c, d) in enumerate(link.crossings):
        i, j = comp_of[a], comp_of[b]
        raw[i][j] += signs[t]
        if i != j:
            raw[j][i] += signs[t]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                out[i][i] = link.components[i].framing + raw[i][i]
            else:
                if raw[i][j] % 2:
                    raise LinkFormatError("odd crossing count between two components")
                out[i][j] = raw[i][j] // 2
    return out


def signature(matrix) -> int:
    """Signature of a symmetric integer matrix, exactly, by congruence
    diagonalization over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    sig = 0
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
        sig += 1 if m[piv][piv] > 0 else -1
        rows.remove(piv)
        for i in rows:
            if m[i][piv] != 0:
                f = m[i][piv] / m[piv][piv]
                for k in range(n):
                    m[i][k] -= f * m[piv][k]
                for k in range(n):
                    m[k][i] -= f * m[k][piv]
    return sig


# ----------------------------------------------------------------------------
# evaluation


def omega_weights(params: QuantumParams):
    """s_k = c d_k for k = 0..r-2; sum s_k^2 = 1 exactly."""
    c = params.c_symbol()
    return [c * params.d_k(k) for k in range(params.r - 1)]


def _head_occurrences(crossings, ob):
    """Arc -> (t, s): the crossing t and slot s where the arc is incoming
    (slot 0 for the under strand, 1 or 3 for the over strand)."""
    occ_head = {}
    for t, x in enumerate(crossings):
        occ_head[x[0]] = (t, 0)
        over_in = 1 if ob[t] else 3
        occ_head[x[over_in]] = (t, over_in)
    return occ_head


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


def _insert_kinks(crossings, occ_head, comp_arcs, framing, fresh):
    """Add |framing| kinks (sign of framing) to one arc of the component.

    Returns the extra crossings and the list of forced over-entry booleans
    for them.  `occ_head` maps arc -> (t, s) of its head occurrence.
    Mutates `crossings` in place when rewiring the cut arc.
    """
    extra, extra_ob = [], []
    if framing == 0:
        return extra, extra_ob
    positive = framing > 0
    if comp_arcs:
        u = comp_arcs[0]
        head = occ_head[u]
    else:
        u, head = next(fresh), None
    cur = u
    for step in range(abs(framing)):
        v = next(fresh)
        last = step == abs(framing) - 1
        nxt = next(fresh) if (head is not None or not last) else u
        if positive:
            extra.append([cur, v, v, nxt])
            extra_ob.append(True)
        else:
            extra.append([cur, nxt, v, v])
            extra_ob.append(False)
        cur = nxt
    if head is not None:
        t, s = head
        crossings[t][s] = cur
    return extra, extra_ob


def _diagram_nodes(params: QuantumParams, link: LabeledLink, labels):
    """The cabled diagram of `link` with every component's label an integer.

    Returns (nodes, pairing, loops_upfront): nodes are ("X", ports) crossings
    of cable strands and ("B", k, bottoms, tops) Jones-Wenzl boxes; `pairing`
    maps each port (node index, slot) to the port at the other end of its
    arc; loops_upfront counts the closed loops that touch no node.
    """
    r = params.r
    for k in labels:
        if not 0 <= k <= r - 2:
            raise DomainError(f"label {k} outside 0..{r - 2}")
    base_ob = link.orientations()
    comp_of = link.arc_component()
    crossings = [list(x) for x in link.crossings]
    ob = list(base_ob)
    cross_comp = []  # (under component, over component) per crossing
    for t, (a, b, c, d) in enumerate(crossings):
        cross_comp.append((comp_of[a], comp_of[b]))

    occ_head = _head_occurrences(crossings, ob)
    fresh = itertools.count(max([0] + [a for x in crossings for a in x]) + 1)

    # framing kinks (only for components that survive)
    for i, comp in enumerate(link.components):
        if labels[i] == 0:
            continue
        extra, extra_ob = _insert_kinks(crossings, occ_head,
                                        comp.arcs, comp.framing, fresh)
        for x, o in zip(extra, extra_ob):
            crossings.append(x)
            ob.append(o)
            cross_comp.append((i, i))
        occ_head = _head_occurrences(crossings, ob)  # cut arcs were rewired

    mult = list(labels)

    # choose box sites: one arc per component with multiplicity >= 2
    box_site = {}
    arcs_of = {i: [] for i in range(len(link.components))}
    for t, x in enumerate(crossings):
        cu, co = cross_comp[t]
        arcs_of[cu].append(x[0])
        arcs_of[co].append(x[1 if ob[t] else 3])
    virtual_boxes = []  # crossingless loops of multiplicity >= 2
    for i, comp in enumerate(link.components):
        if mult[i] >= 2:
            cand = arcs_of[i] or comp.arcs
            if cand:
                box_site[i] = cand[0]
            else:
                virtual_boxes.append(i)

    cut_arcs = set(box_site.values())

    # ----- build nodes over cable sub-arcs -----
    # arc-name aliasing for straight-throughs past dropped components
    alias = UnionFind()

    def arcname(u, i, head_side):
        if head_side and u in cut_arcs:
            return ("arcH", u, i)
        return ("arc", u, i)

    nodes = []  # ("X", (pa, pb, pc, pd)) or ("B", k, bottoms, tops)
    for t, x in enumerate(crossings):
        a, b, c, d = x
        cu, co = cross_comp[t]
        m, n = mult[cu], mult[co]
        bin_, dout = (b, d) if ob[t] else (d, b)
        if m == 0 and n == 0:
            continue
        if n == 0:
            for i in range(1, m + 1):
                alias.union(arcname(a, i, True), arcname(c, i, False))
            continue
        if m == 0:
            for j in range(1, n + 1):
                alias.union(arcname(bin_, j, True), arcname(dout, j, False))
            continue

        def useg(i, step):
            if step == 0:
                return arcname(a, i, True)
            if step == n:
                return arcname(c, i, False)
            return ("useg", t, i, step)

        def oseg(j, step):
            if step == 0:
                return arcname(bin_, j, True)
            if step == m:
                return arcname(dout, j, False)
            return ("oseg", t, j, step)

        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if ob[t]:
                    pa = useg(i, j - 1)
                    pb = oseg(j, m - i)
                    pc = useg(i, j)
                    pd = oseg(j, m - i + 1)
                else:
                    pa = useg(i, n - j)
                    pb = oseg(j, i)
                    pc = useg(i, n - j + 1)
                    pd = oseg(j, i - 1)
                nodes.append(("X", (pa, pb, pc, pd)))

    free_loop_count = 0
    for i, comp in enumerate(link.components):
        k = mult[i]
        if k == 0:
            continue
        if i in box_site:
            u = box_site[i]
            bottoms = [("arc", u, j) for j in range(1, k + 1)]
            tops = [("arcH", u, j) for j in range(1, k + 1)]
            nodes.append(("B", k, bottoms, tops))
        elif i in virtual_boxes:
            # crossingless loop of multiplicity k: close the box on itself,
            # giving the closed-loop value d_k of the projector
            vb = [("vbox", i, j) for j in range(1, k + 1)]
            nodes.append(("B", k, vb, vb))
        elif k == 1 and not arcs_of[i] and not comp.arcs:
            # crossingless loop, multiplicity 1, no kinks: bare circle
            free_loop_count += 1

    # ----- pair up port occurrences -----
    occurrences = {}
    for idx, node in enumerate(nodes):
        ports = node[1] if node[0] == "X" else node[2] + node[3]
        for slot, name in enumerate(ports):
            root = alias.find(name)
            occurrences.setdefault(root, []).append((idx, slot))
    for root, occs in occurrences.items():
        if len(occs) != 2:
            raise LinkFormatError(f"internal: arc {root} has {len(occs)} ends")

    # aliased classes never touched by a node are closed loops
    alias_loops = sum(alias.find(g[0]) not in occurrences for g in alias.groups())
    # components of multiplicity >= 1 whose every crossing partner was
    # dropped (and have no kinks/box) close into alias loops per cable copy;
    # multiplicity-1 crossingless circles were counted in free_loop_count
    loops_upfront = free_loop_count + alias_loops

    pairing = {}
    for root, ((n1, s1), (n2, s2)) in occurrences.items():
        pairing[(n1, s1)] = (n2, s2)
        pairing[(n2, s2)] = (n1, s1)
    return nodes, pairing, loops_upfront


def _port_count(node):
    return 4 if node[0] == "X" else 2 * node[1]


def _greedy_order(nodes, pairing):
    """Sweep order: each step places the node with the most ports paired to
    placed nodes or to itself, the lowest index among equals.  Scores only
    grow, so a heap with stale entries skipped replaces a rescan per step."""
    score = [0] * len(nodes)
    for (idx, _), (other, _) in pairing.items():
        if idx == other:
            score[idx] += 1
    heap = [(-sc, idx) for idx, sc in enumerate(score)]
    heapq.heapify(heap)
    placed = [False] * len(nodes)
    order = []
    while heap:
        neg, idx = heapq.heappop(heap)
        if placed[idx] or -neg != score[idx]:
            continue
        placed[idx] = True
        order.append(idx)
        for slot in range(_port_count(nodes[idx])):
            nb = pairing[(idx, slot)][0]
            if not placed[nb]:
                score[nb] += 1
                heapq.heappush(heap, (-score[nb], nb))
    return order


def _sweep(params: QuantumParams, nodes, pairing, loops_upfront) -> Scalar:
    """Resolve the nodes one at a time, keeping a linear combination of states.

    A state records the current partner of each frontier port: an
    unprocessed port whose `pairing` partner is processed.  Every other port
    still has its `pairing` partner, so it is left out; a state is the tuple
    of partners in the order of `frontier`.  Like states are merged.
    """
    dval = params.loop_d()
    a_pos, a_neg = params.a_pow(1), params.a_pow(-1)

    # resolutions per node: list of (joins, coefficient)
    def node_resolutions(node, idx):
        if node[0] == "X":
            return [
                ([( (idx, 0), (idx, 3) ), ( (idx, 1), (idx, 2) )], a_pos),
                ([( (idx, 0), (idx, 1) ), ( (idx, 2), (idx, 3) )], a_neg),
            ]
        k = node[1]
        out = []
        for diag, coeff in jones_wenzl(params, k).terms.items():
            joins = []
            for p, q in diag.pairs:
                joins.append(((idx, p), (idx, q)))
            out.append((joins, coeff))
        return out

    frontier = []
    placed = set()
    states = {(): params.one()}
    for idx in _greedy_order(nodes, pairing):
        node = nodes[idx]
        resolutions = node_resolutions(node, idx)
        ports = [(idx, s) for s in range(_port_count(node))]
        placed.add(idx)
        old_slot = {p: i for i, p in enumerate(frontier)}
        kept = [i for i, p in enumerate(frontier) if p[0] != idx]
        frontier = [frontier[i] for i in kept] + [
            q for q in (pairing[p] for p in ports) if q[0] not in placed]
        new_slot = {p: i for i, p in enumerate(frontier)}
        opened = [None] * (len(frontier) - len(kept))
        # the node's ports off the frontier have their `pairing` partner in
        # every state; those on it take their partner from the state
        fixed = {p: pairing[p] for p in ports if p not in old_slot}
        on_frontier = [(p, old_slot[p]) for p in ports if p in old_slot]
        new_states = {}
        for key, coeff in states.items():
            local = dict(fixed)
            for p, i in on_frontier:
                local[p] = key[i]
            untouched = [key[i] for i in kept] + opened
            for joins, rcoeff in resolutions:
                p2 = dict(local)
                loops = 0
                for x, y in joins:
                    px = p2.pop(x)
                    if px == y:
                        p2.pop(y)
                        loops += 1
                        continue
                    py = p2.pop(y)
                    p2.pop(px, None)
                    p2.pop(py, None)
                    p2[px] = py
                    p2[py] = px
                c2 = coeff * rcoeff
                for _ in range(loops):
                    c2 = c2 * dval
                # every port left in p2 is a frontier port: a partner of the node
                row = untouched.copy()
                for p, q in p2.items():
                    row[new_slot[p]] = q
                k2 = tuple(row)
                acc = new_states.get(k2)
                new_states[k2] = c2 if acc is None else acc + c2
        states = {k: v for k, v in new_states.items() if not v.is_zero()}
        if not states:
            return params.zero()

    if set(states) != {()}:
        raise AssertionError("sweep did not close all strands")
    total = states[()]
    for _ in range(loops_upfront):
        total = total * dval
    return total


def _evaluate_labeled(params: QuantumParams, link: LabeledLink, labels):
    """Evaluate with every component's label an integer (omega expanded)."""
    return _sweep(params, *_diagram_nodes(params, link, labels))


def evaluate(params: QuantumParams, link: LabeledLink) -> Scalar:
    """Kauffman evaluation of a labeled framed link; omega components are
    expanded as sum_k s_k (component labeled k)."""
    link.validate()
    omega_idx = [i for i, c in enumerate(link.components) if c.label == OMEGA]
    for i, c in enumerate(link.components):
        if c.label != OMEGA and not 0 <= c.label <= params.r - 2:
            raise DomainError(f"component {i} label {c.label} outside 0..{params.r - 2}")
    weights = omega_weights(params)
    total = params.zero()
    base = [c.label for c in link.components]
    for combo in itertools.product(range(params.r - 1), repeat=len(omega_idx)):
        labels = list(base)
        w = params.one()
        for i, k in zip(omega_idx, combo):
            labels[i] = k
            w = w * weights[k]
        total = total + w * _evaluate_labeled(params, link, labels)
    return total


# ----------------------------------------------------------------------------
# builders


def closed_braid_link(word, n, labels=None, framings=None) -> LabeledLink:
    """The closure of a braid word on n strands as a LabeledLink.

    Positive generator i: the strand arriving at position i passes under,
    (right strand over left).  Components are the cycles of the underlying
    permutation, ordered by smallest starting position; labels/framings are
    assigned in that order (defaults: label 1, framing 0).  A list given
    must hold one entry per component, or DomainError is raised.
    """
    cur = list(range(1, n + 1))  # arc id at each position (1-indexed below)
    start = list(cur)
    nxt = itertools.count(n + 1)
    crossings = []
    perm = list(range(n + 1))  # perm[p] = position where the strand starting at p ends
    where = list(range(n + 1))  # where[pos] = starting position of the strand now there
    for g in word:
        i = abs(g)
        if not 1 <= i <= n - 1:
            raise DomainError(f"generator {g} out of range for {n} strands")
        crossings.append(_braid_crossing(cur, g, nxt))
        where[i], where[i + 1] = where[i + 1], where[i]
    for pos in range(1, n + 1):
        perm[where[pos]] = pos
    # close up: the final arc at each position merges with the starting arc there
    rename = {cur[p - 1]: start[p - 1] for p in range(1, n + 1) if cur[p - 1] != start[p - 1]}
    crossings = [[rename.get(a, a) for a in x] for x in crossings]
    # components = cycles of the closure permutation, ordered by smallest position
    strands = UnionFind()
    for a, b, c, d in crossings:
        strands.union(a, c)
        strands.union(b, d)
    strand_of = {a: g for g in strands.groups() for a in g}
    seen = set()
    arc_lists = []
    for p0 in range(1, n + 1):
        if p0 in seen:
            continue
        p = p0
        while p not in seen:
            seen.add(p)
            p = perm[p]
        # a strand that never crosses anything is a bare circle
        arc_lists.append(sorted(strand_of.get(start[p0 - 1], [])))
    count = len(arc_lists)
    for name, given in (("labels", labels), ("framings", framings)):
        if given is not None and len(given) != count:
            raise DomainError(f"{len(given)} {name} given for a closure "
                              f"with {count} components")
    comps = [Component(1 if labels is None else labels[j],
                       0 if framings is None else framings[j], arcs)
             for j, arcs in enumerate(arc_lists)]
    link = LabeledLink(comps, crossings)
    link.validate()
    return link


# ----------------------------------------------------------------------------
# surgery invariant and Kirby moves


def kirby_color_link(link: LabeledLink) -> LabeledLink:
    """Copy of the link with every component labeled omega."""
    return LabeledLink([Component(OMEGA, c.framing, list(c.arcs)) for c in link.components],
                       [list(x) for x in link.crossings])


def unknot_value_plus(params: QuantumParams) -> Scalar:
    """C: the evaluation of a +1-framed omega-labeled unknot."""
    return evaluate(params, unknot_link(OMEGA, 1))


def z_invariant(params: QuantumParams, link: LabeledLink):
    """Evaluate the all-omega labeling of a surgery presentation.

    Returns (value, signature).  The value depends only on the surgered
    3-manifold and the signature of the linking matrix; presentations of the
    same manifold with signatures n and m satisfy
    value_1 * C^{m} == value_2 * C^{n}  for C = unknot_value_plus.
    """
    colored = kirby_color_link(link)
    sig = signature(linking_matrix(link))
    return evaluate(params, colored), sig


def same_manifold_invariant(params: QuantumParams, link1, link2) -> bool:
    """Whether two surgery presentations have equal normalized invariants."""
    v1, n1 = z_invariant(params, link1)
    v2, n2 = z_invariant(params, link2)
    C = unknot_value_plus(params)
    return v1 * C ** n2 == v2 * C ** n1


def _fresh_counter(link: LabeledLink):
    arcs = [a for x in link.crossings for a in x]
    return itertools.count(max(arcs) + 1 if arcs else 1)


def _clasp_after(link: LabeledLink, comp_idx: int, word_builder, new_comps):
    """Rebuild `link` with a local braid tangle spliced into one arc of
    component `comp_idx`; strand 1 of the tangle is that arc, the remaining
    strands close up into the fresh components `new_comps` (list of
    Component prototypes, arcs filled in here).

    `word_builder(nstrands)` returns the braid word; strands 2..nstrands
    must return to their own positions.
    """
    fresh = _fresh_counter(link)
    crossings = [list(x) for x in link.crossings]
    comps = [Component(c.label, c.framing, list(c.arcs)) for c in link.components]
    target = comps[comp_idx]
    nstr = 1 + len(new_comps)
    word = word_builder(nstr)

    occ_head = _head_occurrences(link.crossings, link.orientations())
    if target.arcs:
        u = target.arcs[0]
        head = occ_head[u]
    else:
        u = next(fresh)
        head = None
        target.arcs.append(u)

    cur = [u] + [next(fresh) for _ in range(nstr - 1)]
    startc = list(cur)
    new_arcs = {i: {cur[i]} for i in range(1, nstr)}
    strand1_arcs = []
    where = list(range(nstr))
    for g in word:
        i = abs(g)
        crossings.append(_braid_crossing(cur, g, fresh))
        where[i - 1], where[i] = where[i], where[i - 1]
        for pos in (i - 1, i):
            s = where[pos]
            if s == 0:
                strand1_arcs.append(cur[pos])
            else:
                new_arcs[s].add(cur[pos])
    if where != list(range(nstr)):
        raise DomainError("tangle word must return side strands to their positions")
    # close strands 2..n back on themselves
    rename = {}
    for i in range(1, nstr):
        if cur[i] != startc[i]:
            rename[cur[i]] = startc[i]
    # strand 1: reconnect its far end into the original component
    if head is not None:
        t, s = head
        crossings[t][s] = cur[0]
        if cur[0] != u:
            target.arcs.append(cur[0])
    else:
        rename[cur[0]] = u
    crossings = [[rename.get(a, a) for a in x] for x in crossings]
    for a in strand1_arcs:
        a = rename.get(a, a)
        if a not in target.arcs:
            target.arcs.append(a)
    used = {a for x in crossings for a in x}
    target.arcs = [a for a in dict.fromkeys(target.arcs) if a in used]
    for i, proto in enumerate(new_comps, start=1):
        arcs = sorted({rename.get(a, a) for a in new_arcs[i]} & used)
        comps.append(Component(proto.label, proto.framing, arcs))
    out = LabeledLink(comps, crossings)
    out.validate()
    return out


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
        return _clasp_after(link, i, lambda n: [1, 1, 2, 2], pair_protos)
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
        # f2 times through `over`
        comps = [Component(c.label, c.framing, list(c.arcs)) for c in link.components]
        comps[i].framing += f2
        base = LabeledLink(comps, [list(x) for x in link.crossings])
        if f2 == 0:
            base.validate()
            return base
        # remove the crossingless `over` and re-create it clasped to `slide`
        over_proto = Component(over.label, over.framing)
        del base.components[j]
        i2 = i if i < j else i - 1
        word = [1] * (2 * f2) if f2 > 0 else [-1] * (-2 * f2)
        out = _clasp_after(base, i2, lambda n: word, [over_proto])
        # restore original component order
        newc = out.components.pop()
        out.components.insert(j, newc)
        out.validate()
        return out
    raise DomainError(f"unknown move {move!r}")


def verify_move(params: QuantumParams, link: LabeledLink, move) -> bool:
    """Check invariance of the bracket under one move.  Balanced
    stabilization multiplies the value by C * C^{-1} = 1, so plain equality
    is the right check for every supported move."""
    before = evaluate(params, link)
    after = evaluate(params, apply_move(link, move))
    return before == after


def unknot_link(label=1, framing=0) -> LabeledLink:
    return LabeledLink([Component(label, framing, [])], [])


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
    link = LabeledLink(comps, crossings)
    link.validate()
    return link
