"""Cross-route references: each paper object the package computes in closed
form is rebuilt here by brute force, mostly in honest Temperley-Lieb diagram
calculus, and the tests compare the two exactly.

- diagram tools over ``TLDiagram`` / ``TLElement``: the Catalan basis,
  planarity, flips and rotations, cups and caps, the generators e_i,
  scaling and the tensor product, single crossings, the encircling loop,
  and the sector idempotents of TL_n as polynomials in it;
- TL products: the `Scalar` term loop and the Wenzl recursion that the
  packed chains of ``TLElement.then`` and ``tl.jones_wenzl`` replaced;
- recoupling: loop values, theta and tetrahedral networks, twist and
  encirclement eigenvalues and the Hopf pairing as composed diagrams;
- TQFT: the handlebody vector and the solid-torus expansion of a (p, q)
  curve, read off skein evaluations of torus links;
- the cabled diagram: the builder that aliases cable sub-arcs, which
  ``skein._cabled_diagram`` replaced, kept for every labeling (loops that
  touch no node, boxes closed on themselves) and with any crossings run
  straight through, and the sweep of its diagram on integer ports with
  those loops and the framing monomials multiplied after;
- surgery: ``skein.evaluate`` without its label fold, its Reidemeister
  reduction, its closed forms and its memo of sweep values, one fresh
  sweep of the whole diagram per labeling,
  comparison of two surgery presentations up to the
  signature phase, and the signature by congruence over the rationals
  that ``skein.signature``'s fraction-free congruence replaced;
- the skein sweep's gluing: the port-by-port chase that
  ``skein._join_table``'s union-find replaced, and the head occurrences of
  a diagram's arcs read off its orientations, which ``skein._walk`` now
  records;
- braids: the full twist, its sector scalar, word-level permutation,
  free reduction and writhe, and the `Scalar` folds that the packed
  residue chains of ``tl.resolve_braid`` and ``braids.jones_sector_rep``
  replaced, the per-term Markov trace, and the sector letters built path
  by path from the cup-cap block, which ``braids._generator_matrix`` now
  reads off the level's local table;
- detection: the dense `Scalar` mat-vec, the dense decision of whether a
  matrix is `lambda * I`, and the `mat_mul` fold of a surface word's
  twists, the references of the packed column chain
  ``linalg.product_columns`` behind ``linalg.scalar_of`` and
  ``mcg.SurfaceModel.represent``.

Nothing in the package imports this module."""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd

from helpers import dense_rows, groups, tl_identity
from skeinrep import skein as sk
from skeinrep.braids import BraidWord, _generator_matrix, _sector_dim, block_crossing, path_basis
from skeinrep.linalg import columns, eye, mat_mul, scalar_of
from skeinrep.recoupling import (admissible, check_label, s_matrix, theta, theta_inverse,
                                 twist_coefficient)
from skeinrep.skein import DomainError, LinkFormatError
from skeinrep.tl import (TLDiagram, TLElement, _compose_diagrams, jones_wenzl, loop_power,
                         resolve_braid)
from skeinrep.tqft import Spine, SpineFormatError, basis
from skeinrep.unionfind import UnionFind

# ---------------------------------------------------------------------------
# Temperley-Lieb diagrams


def noncrossing_matchings(points):
    """All noncrossing perfect matchings of an ordered point list."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for idx in range(0, len(rest), 2):
        left, right = rest[:idx], rest[idx + 1:]
        for m1 in noncrossing_matchings(left):
            for m2 in noncrossing_matchings(right):
                yield ((first, rest[idx]),) + m1 + m2


@lru_cache(maxsize=None)
def hom_basis(nb: int, nt: int):
    """The crossingless (nb, nt) diagrams, in parenthesis-lex order."""
    if (nb + nt) % 2:
        return ()
    order = list(range(nb)) + list(range(nb + nt - 1, nb - 1, -1))
    diags = [TLDiagram(nb, nt, m) for m in noncrossing_matchings(order)]
    return tuple(sorted(diags, key=lambda d: d.parens()))


def tl_basis(n: int):
    """The Catalan(n) diagrams of TL_n in canonical (parenthesis-lex) order."""
    return list(hom_basis(n, n))


def is_planar(diag: TLDiagram) -> bool:
    """Standard nesting criterion in the circular boundary order."""
    pos = {p: i for i, p in enumerate(diag.circular_order())}
    spans = sorted((min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in diag.pairs)
    stack = []
    for lo, hi in spans:
        while stack and stack[-1] < lo:
            stack.pop()
        if stack and stack[-1] < hi:
            return False
        stack.append(hi)
    return True


def from_diagram(params, diag: TLDiagram, coeff=None) -> TLElement:
    return TLElement(params, diag.nb, diag.nt,
                     {diag: coeff if coeff is not None else params.one()})


def cups(params, k: int) -> TLElement:
    """0 -> 2k morphism of k nested cups."""
    return from_diagram(params, TLDiagram(0, 2 * k, [(i, 2 * k - 1 - i) for i in range(k)]))


def caps(params, k: int) -> TLElement:
    """2k -> 0 morphism of k nested caps."""
    return from_diagram(params, TLDiagram(2 * k, 0, [(i, 2 * k - 1 - i) for i in range(k)]))


def e_element(params, n: int, i: int) -> TLElement:
    """The generator e_i of TL_n (1-indexed) with coefficient 1."""
    return from_diagram(params, TLDiagram.e_gen(n, i))


def scale(x: TLElement, scalar) -> TLElement:
    """Every coefficient of x times scalar."""
    return TLElement(x.params, x.nb, x.nt,
                     {diag: scalar * coeff for diag, coeff in x.terms.items()})


def tensor(x: TLElement, y: TLElement) -> TLElement:
    """y placed to the right of x.  Distinct diagram pairs give distinct
    diagrams, so no two terms merge."""
    nb, nt = x.nb + y.nb, x.nt + y.nt

    def left(q):
        return q if q < x.nb else q + y.nb

    def right(q):
        return x.nb + q if q < y.nb else nb + x.nt + q - y.nb

    return TLElement(x.params, nb, nt, {
        TLDiagram(nb, nt, [(left(a), left(b)) for a, b in d1.pairs]
                  + [(right(a), right(b)) for a, b in d2.pairs]): c1 * c2
        for d1, c1 in x.terms.items() for d2, c2 in y.terms.items()})


def _relabel(x: TLElement, nb: int, nt: int, move) -> TLElement:
    """Every diagram's points renamed by move into an (nb, nt) diagram.
    move is a bijection of the points, so no two terms merge."""
    return TLElement(x.params, nb, nt,
                     {TLDiagram(nb, nt, [(move(a), move(b)) for a, b in diag.pairs]): coeff
                      for diag, coeff in x.terms.items()})


def flip(x: TLElement) -> TLElement:
    """Vertical mirror: swap bottom and top (the adjoint diagram)."""
    nb, nt = x.nb, x.nt
    return _relabel(x, nt, nb, lambda q: q + nt if q < nb else q - nb)


def rotate180(x: TLElement) -> TLElement:
    """Half-turn rotation of every diagram."""
    last = x.nb + x.nt - 1
    return _relabel(x, x.nt, x.nb, lambda q: last - q)


def coefficient(x: TLElement, diag: TLDiagram):
    return x.terms.get(diag, x.params.zero())


def identity_coefficient(x: TLElement):
    return coefficient(x, TLDiagram.identity(x.nb))


def then_fold(x: TLElement, y: TLElement) -> TLElement:
    """x followed upward by y as a `Scalar` loop over the term pairs, each
    pair's diagrams stacked by ``tl._compose_diagrams`` with d per closed
    loop: the reference of ``TLElement.then``, which takes any Scalar
    coefficients."""
    if x.nt != y.nb:
        raise ValueError(f"strand-count mismatch: {x.nt} vs {y.nb}")
    p = x.params
    terms = {}
    for d1, c1 in x.terms.items():
        for d2, c2 in y.terms.items():
            diag, loops = _compose_diagrams(d1, d2)
            coeff = c1 * c2
            if loops:
                coeff = coeff * loop_power(p, loops)
            acc = terms.get(diag)
            terms[diag] = coeff if acc is None else acc + coeff
    return TLElement(p, x.nb, y.nt, terms)


def wenzl_fold(params, k: int):
    """[P_0, ..., P_k] by the Wenzl recursion
    P_n = P_{n-1} - (Delta_{n-2}/Delta_{n-1}) P_{n-1} e_{n-1} P_{n-1}, with
    P_{n-1} widened by one strand and Delta_j = d_j, in `then_fold`
    products: the reference of ``tl.jones_wenzl``."""
    out = [tl_identity(params, 0)]
    for n in range(1, k + 1):
        wide = tensor(out[-1], tl_identity(params, 1))
        if n > 1:
            ratio = params.d_k(n - 2) / params.d_k(n - 1)
            middle = then_fold(then_fold(wide, e_element(params, n, n - 1)), wide)
            wide = wide - scale(middle, ratio)
        out.append(wide)
    return out


def crossing_element(params, n: int, i: int, positive: bool = True) -> TLElement:
    return resolve_braid(params, [i if positive else -i], n)


def braid_absorption_check(params, word, k: int):
    """Return the scalar lambda with braid * P_k = lambda * P_k.

    Raises if the product is not proportional to P_k or if lambda differs
    from A^{c(word)} (signed crossing count) -- either would be a bug.
    """
    pk = jones_wenzl(params, k)
    prod = resolve_braid(params, word, k) * pk
    lam = params.a_pow(sum(1 if g > 0 else -1 for g in word))
    if not (prod - scale(pk, lam)).is_zero():
        raise AssertionError("braid absorption failed: product is not A^c(b) * P_k")
    return lam


def encircle_element(params, n: int, label: int = 1) -> TLElement:
    """Endomorphism of n strands given by a closed label-`label` loop around them.

    Built as: nested cups on the right, pass the inner new cable leftward over
    the n strands, back rightward underneath, then nested caps.  Label k
    cables the loop by k and inserts P_k; label 0 is the empty loop, so the
    element is the identity.
    """
    k = label
    if k == 0:
        return tl_identity(params, n)
    ident_n = tl_identity(params, n)
    m = n + 2 * k
    cur = tensor(ident_n, cups(params, k))
    for j in range(k):
        # strand currently at position n + j (0-indexed) must travel to position j
        for pos in range(n + j, j, -1):
            cur = cur * crossing_element(params, m, pos, positive=True)
    # insert P_k on the loop cable now sitting at positions 0..k-1
    cur = cur * tensor(jones_wenzl(params, k), tl_identity(params, m - k))
    # return pass uses the same crossing type: the loop goes over on one side
    # of the cable and under on the other, which is two like-signed crossings
    for j in range(k - 1, -1, -1):
        for pos in range(j + 1, n + j + 1):
            cur = cur * crossing_element(params, m, pos, positive=True)
    return cur * tensor(ident_n, caps(params, k))


def _loop_eigenvalue(params, m: int):
    """-(A^{2(m+1)} + A^{-2(m+1)}) for any generic through-label m, also past
    r - 2 where ``recoupling.encircle_eigenvalue`` refuses the label."""
    return -(params.a_pow(2 * (m + 1)) + params.a_pow(-2 * (m + 1)))


def sector_projectors(params, n: int):
    """Central idempotents z_m of TL_n, m the through-label, as polynomials
    in the encircling-loop element E.

    Returns the list [z_m] for m = n mod 2, ..., min(n, r-1) (step 2).
    Labels m > r-1 fold back onto lower ones (the loop eigenvalues satisfy
    lambda_m = lambda_{2r-2-m}), and when n >= r-1 the top entry z_{r-1} is
    the projector onto the trace-zero part of the algebra.

    A class c of labels with one eigenvalue lambda_c, e_c labels in all,
    gets z_c = 1 - (1 - p_c(E))^{e_c} with
    p_c = prod_{j != c} ((E - lambda_j) / (lambda_c - lambda_j))^{e_j}.
    Since prod_j (E - lambda_j)^{e_j} = 0, p_c(E) vanishes on every other
    generalized eigenspace of E and is 1 plus a nilpotent of depth at most
    e_c on class c's, so z_c is the idempotent onto that eigenspace (zero
    when lambda_c is not an eigenvalue).
    """
    if n == 0:
        return [tl_identity(params, 0)]
    # Group generic through-labels m = n%2, n%2+2, ..., n into eigenvalue
    # classes: lambda_m depends only on +/-(m+1) mod 4r (via A^{2(m+1)}), so
    # fold m+1 into c in 0..2r and group.  The first classes are the honest
    # sectors m <= r-2; later ones are trace-zero (negligible) sectors.
    twor = 2 * params.r
    classes = {}  # fold class -> list of generic labels, by first label
    for m in range(n % 2, n + 1, 2):
        t = (m + 1) % twor
        classes.setdefault(min(t, twor - t), []).append(m)
    lams = {c: _loop_eigenvalue(params, ms[0]) for c, ms in classes.items()}
    labels = list(classes)
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if lams[a] == lams[b]:
                raise ValueError(f"loop eigenvalues collide for classes {a},{b} at r={params.r}, s={params.s}")
    ident = tl_identity(params, n)
    E = encircle_element(params, n, 1)

    def power(x, e):
        acc = x
        for _ in range(e - 1):
            acc = acc * x
        return acc

    factors = {c: power(E - scale(ident, lams[c]), len(classes[c])) for c in labels}
    if not reduce(TLElement.then, factors.values()).is_zero():
        raise AssertionError("prod_j (E - lambda_j)^{e_j} is not zero: E has a Jordan block "
                             "deeper than its class or an eigenvalue outside the classes")
    out = []
    for c in labels:
        p_c, denom = ident, params.one()
        for j in labels:
            if j != c:
                p_c = p_c * factors[j]
                denom = denom * (lams[c] - lams[j]) ** len(classes[j])
        out.append(ident - power(ident - scale(p_c, denom.inverse()), len(classes[c])))
    return out


# ---------------------------------------------------------------------------
# recoupling in diagram calculus


def vertex_morphism(params, a: int, b: int, c: int) -> TLElement:
    """The trivalent vertex as a TL morphism a(+)b -> c.

    The rightmost x = (a+b-c)/2 strands of the a-block turn back into the
    leftmost x strands of the b-block; projectors sit on all three cables.
    """
    if not admissible(params, a, b, c):
        raise ValueError(f"inadmissible vertex ({a},{b},{c})")
    x = (a + b - c) // 2
    bottom = tensor(jones_wenzl(params, a), jones_wenzl(params, b))
    mid = tensor(tensor(tl_identity(params, a - x), caps(params, x)),
                 tl_identity(params, b - x))
    return bottom * mid * jones_wenzl(params, c)


def loop_value_oracle(params, k: int):
    return jones_wenzl(params, k).markov_trace()


def theta_oracle(params, a: int, b: int, c: int):
    if not admissible(params, a, b, c):
        raise ValueError("oracle needs an admissible triple")
    v = vertex_morphism(params, a, b, c)
    return (flip(v) * v).markov_trace()


def tet_oracle(params, a: int, b: int, c: int, d: int, e: int, f: int):
    """Brute-force tetrahedron: compose four vertex morphisms and close."""
    triples = [(a, b, e), (c, d, e), (a, c, f), (b, d, f)]
    if not all(admissible(params, *t) for t in triples):
        return params.zero()
    v1bar = flip(vertex_morphism(params, a, b, e))           # e -> a(+)b
    v3 = vertex_morphism(params, a, f, c)                    # a(+)f -> c
    v4 = vertex_morphism(params, f, b, d)                    # f(+)b -> d
    mid = tensor(tensor(tl_identity(params, a), cups(params, f)),
                 tl_identity(params, b))
    v2 = vertex_morphism(params, c, d, e)                    # c(+)d -> e
    return (v1bar * mid * tensor(v3, v4) * v2).markov_trace()


def curl_element(params, k: int, positive: bool = True) -> TLElement:
    """Endomorphism of a k-cable given by one kink of the whole cable."""
    m = 3 * k
    cur = tensor(tl_identity(params, k), cups(params, k))
    for g in block_crossing(0, k, k, True):
        cur = cur * crossing_element(params, m, g, positive=positive)
    return cur * tensor(tl_identity(params, k), caps(params, k))


def _proportional_to(x: TLElement, pk: TLElement, what: str):
    """The scalar mu with x = mu * pk, read at the identity diagram; raises
    when x is not such a multiple."""
    mu = identity_coefficient(x)
    if not (x - scale(pk, mu)).is_zero():
        raise AssertionError(f"{what} projector is not proportional to the projector")
    return mu


def twist_coefficient_oracle(params, k: int):
    """Kink a P_k-cabled strand in honest diagram calculus and read off the
    eigenvalue."""
    check_label(params, k)
    if k == 0:
        return params.one()
    pk = jones_wenzl(params, k)
    return _proportional_to(pk * curl_element(params, k, positive=True) * pk, pk, "kinked")


def encircle_eigenvalue_oracle(params, k: int):
    pk = jones_wenzl(params, k)
    return _proportional_to(pk * encircle_element(params, k, 1) * pk, pk, "encircled")


def hopf_pairing_oracle(params, j: int, k: int):
    """Close a j-cable through a k-labeled encircling loop."""
    return (jones_wenzl(params, j) * encircle_element(params, j, k)).markov_trace()


# ---------------------------------------------------------------------------
# TQFT vectors


def theta_spine() -> Spine:
    """Genus-2 spine: two vertices joined by three edges."""
    return Spine(edges=["x", "y", "z"], vertices=[["x", "y", "z"], ["x", "y", "z"]])


def handlebody_vector(params, spine: Spine):
    """Z(H) in the spine basis: the indicator of the all-zero labeling."""
    if spine.boundary:
        raise SpineFormatError("handlebody vector needs a closed boundary surface")
    zero = {e: 0 for e in spine.edges}
    return [params.one() if lab == zero else params.zero() for lab in basis(params, spine)]


def axis_word(q: int):
    """Braid word on q+1 strands taking strand q+1 once around strands 1..q
    (over on the way out, under on the way back)."""
    return list(range(q, 0, -1)) + list(range(1, q + 1))


def torus_curve_link(p: int, q: int, axis_label) -> sk.LabeledLink:
    """The (p,q) curve of the boundary torus pushed into the solid torus,
    together with the core of the complementary solid torus labeled
    `axis_label`; as a link in S^3."""
    if gcd(p, q) != 1:
        raise DomainError(f"({p},{q}) is not coprime")
    if q < 0:
        p, q = -p, -q
    if q == 0:
        # meridian: a contractible circle split from the axis
        return sk.split_union(sk.unknot_link(1, 0), sk.unknot_link(axis_label, 0))
    word = [i if p > 0 else -i for _ in range(abs(p)) for i in range(1, q)]
    word += axis_word(q)
    return sk.closed_braid_link(word, q + 1, labels=[1, axis_label], framings=[0, 0])


def expand_solid_torus(params, p: int, q: int):
    """Coordinates of the pushed-in (p,q) curve in the core-projector basis
    b_0..b_{r-2} of the solid torus, extracted by pairing with the dual
    solid torus (the Hopf pairing Gram matrix is S, with inverse S/D)."""
    pairings = [sk.evaluate(params, torus_curve_link(p, q, j)) for j in range(params.r - 1)]
    inv_d = params.inverse_total_d_squared()
    return [inv_d * x for x in mat_vec(s_matrix(params), pairings)]


# ---------------------------------------------------------------------------
# the cabled diagram and its sweep


def reference_strands(link):
    """The label-free data of the cabled diagram, shared by every labelling:
    (ob, cross_comp, arcs_of) with ob the orientations, cross_comp[t] the
    (under, over) components of crossing t, and arcs_of[i] the incoming
    arcs of component i, one per crossing it passes."""
    ob = link.orientations()
    comp_of = link.arc_component()
    cross_comp = [(comp_of[a], comp_of[b]) for a, b, c, d in link.crossings]
    arcs_of = {i: [] for i in range(len(link.components))}
    for t, x in enumerate(link.crossings):
        cu, co = cross_comp[t]
        arcs_of[cu].append(x[0])
        arcs_of[co].append(x[1 if ob[t] else 3])
    return ob, cross_comp, arcs_of


def reference_diagram_nodes(params, link, labels, strands, dropped=()):
    """The cabled diagram of `link` with every component's label an integer,
    over its label-free data `strands` (``reference_strands(link)``), and
    the crossings in `dropped` run straight through.

    Returns (nodes, pairing, loops_upfront): nodes are ("X", ports) crossings
    of cable strands and ("B", k, bottoms, tops) Jones-Wenzl boxes; `pairing`
    maps each port (node index, slot) to the port at the other end of its
    arc; loops_upfront counts the closed loops that touch no node.
    """
    r = params.r
    for k in labels:
        if not 0 <= k <= r - 2:
            raise DomainError(f"label {k} outside 0..{r - 2}")
    ob, cross_comp, arcs_of = strands
    crossings = link.crossings

    # choose box sites: one arc per component with multiplicity >= 2
    box_site = {}
    virtual_boxes = []  # crossingless loops of multiplicity >= 2
    for i, k in enumerate(labels):
        if k >= 2:
            if arcs_of[i]:
                box_site[i] = arcs_of[i][0]
            else:
                virtual_boxes.append(i)

    cut_arcs = set(box_site.values())

    # ----- build nodes over cable sub-arcs -----
    # arc-name aliasing for straight-throughs past dropped components
    alias, aliased = UnionFind(), []

    def join(u, v):
        aliased.extend((u, v))
        alias.union(u, v)

    def arcname(u, i, head_side):
        if head_side and u in cut_arcs:
            return ("arcH", u, i)
        return ("arc", u, i)

    nodes = []  # ("X", (pa, pb, pc, pd)) or ("B", k, bottoms, tops)
    for t, x in enumerate(crossings):
        a, b, c, d = x
        cu, co = cross_comp[t]
        m, n = labels[cu], labels[co]
        bin_, dout = (b, d) if ob[t] else (d, b)
        if t in dropped or n == 0:
            for i in range(1, m + 1):
                join(arcname(a, i, True), arcname(c, i, False))
        if t in dropped or m == 0:
            for j in range(1, n + 1):
                join(arcname(bin_, j, True), arcname(dout, j, False))
        if t in dropped or m == 0 or n == 0:
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
    for i, k in enumerate(labels):
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
        elif not arcs_of[i]:
            # crossingless loop of multiplicity 1: a bare circle
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
    alias_loops = sum(alias.find(g[0]) not in occurrences for g in groups(alias, aliased))
    # components of multiplicity 1 whose every crossing partner was dropped
    # or labeled 0 close into alias loops; crossingless ones were counted in
    # free_loop_count
    loops_upfront = free_loop_count + alias_loops

    pairing = {}
    for root, ((n1, s1), (n2, s2)) in occurrences.items():
        pairing[(n1, s1)] = (n2, s2)
        pairing[(n2, s2)] = (n1, s1)
    return nodes, pairing, loops_upfront


def cabled_reference(params, link, labels, dropped=()):
    """(kinds, pairing, loops_upfront): the cabled diagram of `link` with
    the crossings in `dropped` run straight through, built by aliasing
    cable sub-arcs (``reference_diagram_nodes``).  kinds lists the nodes
    as ``skein._cabled_diagram`` does, `pairing` maps each port (node,
    slot) to the port at the other end of its strand, and loops_upfront
    counts the closed loops that touch no node.  Unlike the package's
    cabler it takes every labeling: a component of nonzero label with no
    pass through a kept crossing of nonzero partner is its box closed on
    itself, or one loop upfront for label 1."""
    nodes, pairing, loops = reference_diagram_nodes(params, link, labels,
                                                    reference_strands(link), dropped)
    return [node[0] if node[0] == "X" else node[1] for node in nodes], pairing, loops


def ports(kinds, pairing):
    """The list `partner` of a (node, slot) pairing on integer ports, the
    form ``skein._cabled_diagram`` writes: port base[x] + s is slot s of
    node x, and partner[p] is the port at the other end of port p's
    strand."""
    base = list(itertools.accumulate(map(sk._port_count, kinds), initial=0))
    partner = [0] * base[-1]
    for (x, s), (y, t) in pairing.items():
        partner[base[x] + s] = base[y] + t
    return partner


def swept(params, kinds, pairing, loops_upfront=0, twists=()):
    """The value of a cabled diagram with `loops_upfront` closed loops that
    touch no node, times the framing monomials `twists`: ``skein._sweep``
    on its integer ports when it has a node (the package sweeps no other),
    then d^loops_upfront and the monomials multiply the value."""
    total = sk._sweep(params, kinds, ports(kinds, pairing)) if kinds else params.one()
    total = total * loop_power(params, loops_upfront)
    for twist in twists:
        total = total * twist
    return total


# ---------------------------------------------------------------------------
# surgery presentations


def swept_labeled(params, link, labels, dropped, framings):
    """``skein._evaluate_labeled`` as one fresh sweep of the whole cabled
    diagram, with no closed form and no level memo of sweep values:
    ``swept`` of ``cabled_reference`` with the crossings in `dropped` run
    straight through, times its loops and the framing monomials mu_k^f."""
    twists = [twist_coefficient(params, k, f) for k, f in zip(labels, framings) if k and f]
    return swept(params, *cabled_reference(params, link, labels, dropped), twists)


def unreduced_labeled(params, link, labels):
    """``swept_labeled`` on the whole diagram: no crossing run straight
    through and every framing as the link gives it, the route before
    ``skein._reduction``."""
    return swept_labeled(params, link, labels, (), [c.framing for c in link.components])


def unfolded_evaluate(params, link):
    """``skein.evaluate`` without the label fold and without the reduction:
    one sweep of the whole diagram (``unreduced_labeled``) for every
    integer labeling, omega expanded over 0..r-2, summed with weights
    s_k = c d_k."""
    choices = [range(params.r - 1) if c.label == sk.OMEGA else [c.label]
               for c in link.components]
    c, total = params.c_symbol(), params.zero()
    for labels in itertools.product(*choices):
        weight = params.one()
        for comp, k in zip(link.components, labels):
            if comp.label == sk.OMEGA:
                weight = weight * c * params.d_k(k)
        total = total + weight * unreduced_labeled(params, link, list(labels))
    return total


def unknot_value_plus(params):
    """C: the evaluation of a +1-framed omega-labeled unknot."""
    return sk.evaluate(params, sk.unknot_link(sk.OMEGA, 1))


def same_manifold_invariant(params, link1, link2) -> bool:
    """Whether two surgery presentations have equal normalized invariants:
    value_1 * C^{n_2} == value_2 * C^{n_1}, n_i the signatures."""
    v1, n1 = sk.z_invariant(params, link1)
    v2, n2 = sk.z_invariant(params, link2)
    c = unknot_value_plus(params)
    return v1 * c ** n2 == v2 * c ** n1


def signature_fraction(matrix) -> int:
    """Signature of a symmetric integer matrix by congruence
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


def join_table_chase(params, kind, static, sig):
    """``skein._join_table`` by a chase along the joins: from each port
    joined outside, through the resolution's pairs and the pattern's
    own-port joins to the other port joined outside, then around each
    loop that is left."""
    frontier = [j for j, s in enumerate(static) if s == -2]
    outside = {j: t for t, j in enumerate(frontier + [j for j, s in enumerate(static)
                                                      if s == -1])}
    local = list(static)
    for j, own in zip(frontier, sig):
        local[j] = -1 if own is None else own
    table = []
    for pairs, _ in sk._node_terms(params, kind)[2]:
        join = {}
        for x, y in pairs:
            join[x], join[y] = y, x
        seen, writes, loops = set(), [], 0
        for j in outside:
            if local[j] < 0 and j not in seen:
                i = join[j]
                while local[i] >= 0:
                    seen.update((i, local[i]))
                    i = join[local[i]]
                seen.update((j, i))
                writes += [(outside[j], outside[i]), (outside[i], outside[j])]
        for j in range(len(local)):
            if j not in seen:
                loops += 1
                while j not in seen:
                    seen.update((j, join[j]))
                    j = local[join[j]]
        table.append((loops, tuple(writes)))
    return table


def head_occurrences(crossings, ob):
    """Arc -> (t, s): the crossing t and slot s where the arc is incoming
    (slot 0 for the under strand, 1 or 3 for the over strand), read off
    the orientations `ob`."""
    occ_head = {}
    for t, x in enumerate(crossings):
        occ_head[x[0]] = (t, 0)
        over_in = 1 if ob[t] else 3
        occ_head[x[over_in]] = (t, over_in)
    return occ_head


# ---------------------------------------------------------------------------
# braid words


def writhe(braid: BraidWord) -> int:
    return sum(1 if g > 0 else -1 for g in braid.word)


def permutation(braid: BraidWord) -> tuple:
    """perm[i] = top position of the strand entering at bottom position i."""
    pos = list(range(braid.n))
    for g in braid.word:
        i = abs(g) - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    out = [0] * braid.n
    for top, bottom in enumerate(pos):
        out[bottom] = top
    return tuple(out)


def free_reduce(braid: BraidWord) -> BraidWord:
    out = []
    for g in braid.word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return BraidWord(braid.n, tuple(out))


def resolve_braid_fold(params, word, n: int) -> TLElement:
    """The image of a braid word in TL_n as a fold of `then_fold` products,
    sigma_i -> A * id + A^{-1} * e_i letter by letter: the reference of
    `tl.resolve_braid`."""
    out = tl_identity(params, n)
    for g in word:
        i = abs(g)
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator {g} out of range for {n} strands")
        a = params.a_pow(1 if g > 0 else -1)
        ainv = params.a_pow(-1 if g > 0 else 1)
        gen = scale(tl_identity(params, n), a) + scale(e_element(params, n, i), ainv)
        out = then_fold(out, gen)
    return out


def markov_trace_fold(x: TLElement):
    """The Markov trace as a fold over the terms, one product by d^loops per
    term: the reference of `TLElement.markov_trace`, which multiplies once
    per distinct loop count."""
    n, p = x.nb, x.params
    total = p.zero()
    for diag, coeff in x.terms.items():
        uf = UnionFind()
        loops = sum(not uf.union(a % n, b % n) for a, b in diag.pairs)
        total = total + coeff * p.loop_d() ** loops
    return total


def e_block_reference(params, a: int):
    """Matrix of the cup-cap e over neighbour value a: channels b in {a-1,a+1}
    (clipped to valid labels), entries theta(a,1,b) d_{b'} / (d_a theta(a,1,b'))."""
    bs = [b for b in (a - 1, a + 1) if 0 <= b <= params.r - 2]
    inv_da = params.inverse_d_k(a)
    col = [theta(params, a, 1, b) * inv_da for b in bs]
    row = [params.d_k(b) * theta_inverse(params, a, 1, b) for b in bs]
    return bs, [[row[i] * col[j] for j in range(len(bs))] for i in range(len(bs))]


def generator_matrix_reference(params, n: int, m: int, gen: int):
    """Sector matrix of sigma_|gen|^(sign gen) on the path basis, as
    {row: Scalar} columns, built path by path from the cup-cap block with
    one `Scalar` product and sum per entry: the reference of
    `braids._generator_matrix`, which reads the level's local table."""
    paths = path_basis(params, n, m)
    idx = {p: k for k, p in enumerate(paths)}
    i = abs(gen)
    a_diag = params.a_pow(1 if gen > 0 else -1)
    a_off = params.a_pow(-1 if gen > 0 else 1)
    zero = params.zero()
    out = [{k: a_diag} for k in range(len(paths))]
    for k, p in enumerate(paths):
        if p[i - 1] == p[i + 1]:
            bs, block = e_block_reference(params, p[i - 1])
            bi = bs.index(p[i])
            for bj, b2 in enumerate(bs):
                q = p[:i] + (b2,) + p[i + 1:]
                if q in idx:
                    out[k][idx[q]] = out[k].get(idx[q], zero) + a_off * block[bj][bi]
    return out


def sector_generators(params, braid: BraidWord, m: int):
    """The dense sector-m matrices of the braid's letters, leftmost first."""
    return [dense_rows(params, _generator_matrix(params, braid.n, m, g)) for g in braid.word]


def sector_rep_fold(params, braid: BraidWord, m: int):
    """The sector-m matrix of a braid word as a fold of `linalg.mat_mul` over
    its generator matrices: the reference of `braids.jones_sector_rep`."""
    return reduce(mat_mul, sector_generators(params, braid, m),
                  eye(params, _sector_dim(params, braid.n, m)))


def surface_twists(params, model, word):
    """The dense twists `twist_matrix(curve, +-1)` of a word on a
    `mcg.SurfaceModel`, each repeated |exp| times, leftmost first."""
    return [model.twist_matrix(params, curve, -1 if exp < 0 else 1).matrix
            for curve, exp in word for _ in range(abs(exp))]


def represent_fold(params, model, word):
    """The matrix of a twist word as a fold of `linalg.mat_mul` over its
    `surface_twists`, or I for an empty word: the reference of
    `mcg.SurfaceModel.represent` and `twist_matrix`'s other powers."""
    return reduce(mat_mul, surface_twists(params, model, word), eye(params, model.dim(params)))


def _inverse(word):
    return [-g for g in reversed(word)]


def bigelow_braid() -> BraidWord:
    """Bigelow's 5-strand braid in the kernel of the Burau representation
    (Bigelow, "The Burau representation is not faithful for n = 5",
    Geom. Topol. 3, 1999), freely reduced: the commutator of two conjugates
    of sigma_4 and of sigma_4 sigma_3 sigma_2 sigma_1^2 sigma_2 sigma_3
    sigma_4, 118 letters."""
    psi1 = [-3, 2, 1, 1, 2, 4, 4, 4, 3, 2]
    psi2 = [-4, 3, 2, -1, -1, 2, 1, 1, 2, 2, 1, 4, 4, 4, 4, 4]
    a = _inverse(psi1) + [4] + psi1
    b = _inverse(psi2) + [4, 3, 2, 1, 1, 2, 3, 4] + psi2
    return free_reduce(BraidWord(5, _inverse(a) + _inverse(b) + a + b))


def full_twist_word(n: int) -> BraidWord:
    """The full twist Delta^2 = (sigma_1 ... sigma_{n-1})^n."""
    return BraidWord(n, tuple(range(1, n)) * n)


def full_twist_scalar(params, n: int, m: int):
    """Scalar action of the full twist on the sector (central, so a scalar);
    equals (-1)^(m+n) A^(m(m+2) - 3n) -- the twist coefficient of m corrected
    by one curl factor -A^(-3) per strand (the unframed convention)."""
    dim = _sector_dim(params, n, m)
    gens = [_generator_matrix(params, n, m, g) for g in full_twist_word(n).word]
    lam = scalar_of(params, [columns(g) for g in gens], dim)
    if lam is None or lam.is_zero():
        raise DomainError("full twist did not act as a scalar")
    expect = params.a_pow(m * (m + 2) - 3 * n)
    if (m + n) % 2:
        expect = -expect
    if lam != expect:
        raise DomainError("full twist scalar does not match its closed form")
    return lam


# ---------------------------------------------------------------------------
# detection


def mat_vec(a, v):
    """The product of a dense Scalar matrix and a vector; zeros are skipped,
    of v once per call, of a per row."""
    live = [j for j, x in enumerate(v) if not x.is_zero()]
    zero = v[0].params.zero() if v else None
    out = []
    for row in a:
        acc = None
        for j in live:
            x = row[j]
            if x.is_zero():
                continue
            term = x * v[j]
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else zero)
    return out


def dense_scalar(matrix):
    """lambda when the nonempty matrix is exactly lambda * I (lambda may be
    0), else None."""
    n = len(matrix)
    lam = matrix[0][0]
    for i in range(n):
        for j in range(n):
            if matrix[i][j] != (lam if i == j else lam.params.zero()):
                return None
    return lam
