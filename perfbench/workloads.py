"""Seeded request streams, their execution, and exact response checks.

Each workload turns a seed into a fixed list of requests.  A request is a
plain dict; ``execute`` issues it through the library's public functions and
returns the response; a ``Checker`` decides, outside the timed region,
whether the response is exactly right.  Inputs depend only on the seed and
the run length, never on the code under test, so two commits replay the
same list.

The list is built from blocks.  Each workload states how many seconds one of
its blocks took at the commit that defined the benchmark, and every block
holds the same mix of request classes, so a run of any length keeps the mix
and its percentiles compare like with like.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from math import gcd
from pathlib import Path

from skeinrep import braids, linalg, mcg, skein, tl
from skeinrep.recoupling import loop_value
from skeinrep.scalars import QuantumParams

POOL_FILE = Path(__file__).with_name("link_pool.json")

# ----------------------------------------------------------------- helpers


def blocks_for(seconds: int, block_seconds: float) -> int:
    return max(1, round(seconds / block_seconds))


def common_units(r_lo: int, r_hi: int):
    """Root selectors s valid at every level of a scan r_lo..r_hi."""
    return [s for s in range(1, 4 * r_lo)
            if all(gcd(s, 4 * r) == 1 for r in range(r_lo, r_hi + 1))]


def braid_cycles(word, n):
    """Cycles of the closure permutation, ordered by smallest position (the
    order in which closed_braid_link assigns component labels)."""
    where = list(range(n))
    for g in word:
        i = abs(g) - 1
        where[i], where[i + 1] = where[i + 1], where[i]
    perm = [0] * n
    for pos, start in enumerate(where):
        perm[start] = pos
    seen, cycles = set(), []
    for p0 in range(n):
        if p0 in seen:
            continue
        cyc, p = [], p0
        while p not in seen:
            seen.add(p)
            cyc.append(p)
            p = perm[p]
        cycles.append(cyc)
    return cycles


def canonical_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def response_json(req, resp):
    """Canonical JSON of a link_eval response (the thing digests cover)."""
    if req["kind"] == "z_invariant":
        value, sig = resp
        return {"value": value.to_json(), "signature": sig}
    return {"value": resp.to_json()}


def perturb_scalar(x):
    """A different scalar of the same c-parity (so it still serialises)."""
    return x + x if not x.is_zero() else x.params.one()


def perturb_matrix(m):
    out = [list(row) for row in m]
    out[0][0] = perturb_scalar(out[0][0])
    return out


def flip_first_verdict(result, first_ctx):
    """A DetectionResult with the verdict at its lowest level flipped."""
    levels = sorted(result.verdicts)
    r = levels[0]
    verdicts = dict(result.verdicts)
    witness = dict(result.witness)
    if verdicts[r] == "nontrivial":
        verdicts[r] = "trivial"
        witness.pop(r, None)
    else:
        verdicts[r] = "nontrivial"
        witness[r] = first_ctx
    bad = [q for q in levels if verdicts[q] == "nontrivial"]
    return mcg.DetectionResult(r0=bad[0] if bad else None, verdicts=verdicts,
                               witness=witness)


class ParamsCache:
    """QuantumParams per (r, s) for the checkers (requests build their own)."""

    def __init__(self):
        self._params = {}

    def __call__(self, r, s):
        key = (r, s)
        if key not in self._params:
            self._params[key] = QuantumParams(r, s)
        return self._params[key]


def _verdict_shape_ok(result, r_lo, r_hi):
    if set(result.verdicts) != set(range(r_lo, r_hi + 1)):
        return False
    if any(v not in ("trivial", "nontrivial") for v in result.verdicts.values()):
        return False
    bad = sorted(r for r, v in result.verdicts.items() if v == "nontrivial")
    if result.r0 != (bad[0] if bad else None):
        return False
    return set(result.witness) == set(bad)


# ------------------------------------------------------------ mcg_detect

# (surface, r_lo, r_hi, requests per block).  Most requests are small; the
# last two classes are single high levels whose dense cyclotomic matrices
# carry the growing rational coefficients.
MCG_BLOCK_SECONDS = 5.0
MCG_CLASSES = (
    ("genus2", 3, 3, 5),
    ("punctured_torus", 3, 4, 5),
    ("torus", 3, 4, 9),
    ("punctured_torus", 3, 5, 3),
    ("genus2", 3, 4, 2),
    ("four_punctured_sphere", 3, 4, 2),
    ("four_punctured_sphere", 5, 5, 2),
    ("torus", 6, 6, 2),
)

# g34 is left out on the four-punctured sphere: it is isotopic to g12 there,
# so words using both cancel to the identity and force a scan of every
# boundary-label block, several times the cost of the rest of the class.
MCG_CURVES = {
    "torus": ("a", "b", "c", "d"),
    "punctured_torus": ("a", "b"),
    "four_punctured_sphere": ("g12", "g23"),
    "genus2": ("b0", "b1", "b2", "b3", "b4"),
}


def _twist_word(rng, surface):
    """Every curve of the surface once plus one more, shuffled, with half the
    exponents negative: the set of twist matrices a request needs is then
    fixed by its class, which keeps the cost of a class steady."""
    curves = list(MCG_CURVES[surface]) + [rng.choice(MCG_CURVES[surface])]
    rng.shuffle(curves)
    signs = [1] * ((len(curves) + 1) // 2) + [-1] * (len(curves) // 2)
    rng.shuffle(signs)
    return tuple(zip(curves, signs))


def _mcg_roots(r_lo, r_hi):
    """A = e^{2 pi i/4r} and one other primitive root: two root selectors
    per class, so requests of a class repeat their twist matrices."""
    units = common_units(r_lo, r_hi)
    return (units[0], units[-1])


def mcg_requests(seed, seconds):
    rng = random.Random(f"mcg_detect:{seed}")
    out = []
    for _ in range(blocks_for(seconds, MCG_BLOCK_SECONDS)):
        for surface, r_lo, r_hi, count in MCG_CLASSES:
            for _ in range(count):
                out.append({"kind": "detect", "surface": surface,
                            "word": _twist_word(rng, surface),
                            "r_lo": r_lo, "r_hi": r_hi,
                            "s": rng.choice(_mcg_roots(r_lo, r_hi))})
    rng.shuffle(out)
    return out


def boundary_contexts(surface, r):
    """Boundary-label blocks of a surface at level r, in scan order."""
    if surface in ("torus", "genus2"):
        return [()]
    if surface == "punctured_torus":
        return [(l,) for l in range(0, r - 1, 2)]
    out = []
    for l1 in range(r - 1):
        for l2 in range(r - 1):
            for l3 in range(r - 1):
                for l4 in range(r - 1):
                    if (l1 + l2 + l3 + l4) % 2 == 0:
                        out.append((l1, l2, l3, l4))
    return out


def inverse_word(word):
    return tuple((c, -e) for c, e in reversed(word))


class McgChecker:
    """Recomputes each verdict from twist matrices it keeps for the whole run
    (with their inverses) and checks rho(w) rho(w^-1) = I at the least
    detecting level."""

    def __init__(self):
        self.params = ParamsCache()
        self._models = {}
        self._twists = {}

    @staticmethod
    def kind_of(req):
        return req["kind"]

    def _model(self, surface, ctx):
        key = (surface, ctx)
        if key not in self._models:
            self._models[key] = mcg.surface_model(surface, ctx)
        return self._models[key]

    def _twist(self, model, p, curve, exp):
        key = (id(model), p.r, p.s, curve)
        if key not in self._twists:
            t = model.twist_matrix(p, curve).matrix
            self._twists[key] = {1: t, -1: linalg.mat_inv(p, t)}
        return self._twists[key][exp]

    def rho(self, surface, ctx, p, word):
        model = self._model(surface, ctx)
        out = linalg.eye(p, model.dim(p))
        for curve, exp in word:
            out = linalg.mat_mul(out, self._twist(model, p, curve, exp))
        return out

    @staticmethod
    def inverse_pair_ok(params, m, m_inv):
        return linalg.is_identity(params, linalg.mat_mul(m, m_inv))

    def check(self, req, resp):
        surface, word = req["surface"], req["word"]
        if not _verdict_shape_ok(resp, req["r_lo"], req["r_hi"]):
            return False
        for r, verdict in resp.verdicts.items():
            p = self.params(r, req["s"])
            if verdict == "nontrivial":
                ctx = tuple(resp.witness[r])
                if ctx not in boundary_contexts(surface, r) or \
                        self._model(surface, ctx).dim(p) == 0:
                    return False
                m = self.rho(surface, ctx, p, word)
                if mcg.is_projectively_identity(m):
                    return False
                if r == resp.r0:
                    m_inv = self.rho(surface, ctx, p, inverse_word(word))
                    if not self.inverse_pair_ok(p, m, m_inv):
                        return False
            else:
                for ctx in boundary_contexts(surface, r):
                    if self._model(surface, ctx).dim(p) == 0:
                        continue
                    if not mcg.is_projectively_identity(self.rho(surface, ctx, p, word)):
                        return False
        return True

    def self_test(self, req, resp):
        """Wrong responses this checker must reject."""
        surface, word = req["surface"], req["word"]
        first_ctx = boundary_contexts(surface, min(resp.verdicts))[-1]
        yield "verdict", self.check(req, flip_first_verdict(resp, first_ctx))
        r = resp.r0 if resp.r0 is not None else req["r_lo"]
        p = self.params(r, req["s"])
        ctx = tuple(resp.witness.get(r, boundary_contexts(surface, r)[-1]))
        m = self.rho(surface, ctx, p, word)
        m_inv = self.rho(surface, ctx, p, inverse_word(word))
        yield "inverse_pair", self.inverse_pair_ok(p, m, perturb_matrix(m_inv))


def execute_mcg(req):
    return mcg.detect(req["surface"], list(req["word"]),
                      range(req["r_lo"], req["r_hi"] + 1), s=req["s"])


# ------------------------------------------------------------- link_eval

LINK_BLOCK_SECONDS = 4.5
LINK_LEVELS = (4, 5, 6)
LINK_STRANDS = (2, 3, 4)
LINK_POOL_PER_BLOCK = 80
LINK_LABEL1_PER_BLOCK = 20
# Caps that keep one request within a few seconds.  Labels run 1..3 or
# omega, with at most one omega component at r = 6 (two there take about
# half a minute).  The cabled size of a link weighs each crossing by the
# product of the two labels it joins and each framing kink by the square of
# its label, with an omega component counted at its top label r-2.
LINK_WEIGHT_CAP = 32


def _random_braid(rng, n, lo, hi):
    return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                 for _ in range(rng.randint(lo, hi)))


def cabled_weight(word, n, labels, framings, r):
    cycles = braid_cycles(word, n)
    comp_at = {}
    for ci, cyc in enumerate(cycles):
        for p in cyc:
            comp_at[p] = ci
    k = [r - 2 if lab == skein.OMEGA else lab for lab in labels]
    pos = list(range(n))  # strand (by start position) at each position
    weight = 0
    for g in word:
        i = abs(g) - 1
        weight += k[comp_at[pos[i]]] * k[comp_at[pos[i + 1]]]
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    return weight + sum(abs(f) * kk * kk for f, kk in zip(framings, k))


def _link_input(rng, r, n, labels_fn):
    """Draw a closed braid with at most three components and labels within
    the size cap; labels_fn picks labels given the component count."""
    while True:
        word = _random_braid(rng, n, 2, 6)
        comps = len(braid_cycles(word, n))
        if comps > 3:
            continue
        labels = labels_fn(comps)
        if labels is None:
            continue
        framings = tuple(rng.randint(-2, 2) for _ in range(comps))
        if cabled_weight(word, n, labels, framings, r) <= LINK_WEIGHT_CAP:
            return word, tuple(labels), framings


def _link_request(kind, r, s, n, word, labels, framings, digest=None):
    req = {"kind": kind, "r": r, "s": s, "n": n, "word": tuple(word),
           "labels": tuple(labels), "framings": tuple(framings)}
    if digest is not None:
        req["digest"] = digest
    return req


def link_pool_inputs(seed, count):
    """Links with a label >= 2 or an omega component, and surgery
    presentations for z_invariant.  No independent identity checks these,
    so they are drawn once from a fixed seed and their responses compared
    with digests recorded when the benchmark was defined."""
    rng = random.Random(f"link_pool:{seed}")
    out = []
    while len(out) < count:
        r = LINK_LEVELS[len(out) % len(LINK_LEVELS)]
        n = LINK_STRANDS[(len(out) // len(LINK_LEVELS)) % len(LINK_STRANDS)]
        s = rng.choice(common_units(r, r))
        if len(out) % 4 == 3:
            # all-omega presentations stay under the cap only at r = 4
            r, s = 4, rng.choice(common_units(4, 4))
            word, _, framings = _link_input(
                rng, r, n, lambda c: [skein.OMEGA] * c)
            out.append(_link_request("z_invariant", r, s, n, word,
                                     [skein.OMEGA] * len(framings), framings))
            continue
        choices = list(range(1, min(3, r - 2) + 1)) + [skein.OMEGA]

        def labels_fn(c):
            labels = [rng.choice(choices) for _ in range(c)]
            if all(l == 1 for l in labels):
                return None
            if r == 6 and labels.count(skein.OMEGA) > 1:
                return None
            return labels

        word, labels, framings = _link_input(rng, r, n, labels_fn)
        out.append(_link_request("evaluate", r, s, n, word, labels, framings))
    return out


def load_link_pool():
    with open(POOL_FILE) as fh:
        data = json.load(fh)
    return [_link_request(e["kind"], e["r"], e["s"], e["n"], e["word"],
                          [l if l == skein.OMEGA else int(l) for l in e["labels"]],
                          e["framings"], e["digest"]) for e in data["requests"]]


def link_requests(seed, seconds):
    rng = random.Random(f"link_eval:{seed}")
    pool = load_link_pool()
    out = []
    for b in range(blocks_for(seconds, LINK_BLOCK_SECONDS)):
        for j in range(LINK_POOL_PER_BLOCK):
            out.append(dict(pool[(b * LINK_POOL_PER_BLOCK + j) % len(pool)]))
        for j in range(LINK_LABEL1_PER_BLOCK):
            r = LINK_LEVELS[j % len(LINK_LEVELS)]
            n = LINK_STRANDS[(j // len(LINK_LEVELS)) % len(LINK_STRANDS)]
            word, labels, framings = _link_input(rng, r, n, lambda c: [1] * c)
            out.append(_link_request("evaluate", r, rng.choice(common_units(r, r)),
                                     n, word, labels, framings))
    rng.shuffle(out)
    for req in out:
        req["link"] = skein.closed_braid_link(list(req["word"]), req["n"],
                                              labels=list(req["labels"]),
                                              framings=list(req["framings"]))
    return out


def execute_link(req):
    params = QuantumParams(req["r"], req["s"])
    if req["kind"] == "z_invariant":
        return skein.z_invariant(params, req["link"])
    return skein.evaluate(params, req["link"])


class LinkChecker:
    """Label-1 links: the bracket of a closed braid is the Markov trace of
    its Temperley-Lieb image times (-A^3) per unit of framing.  Everything
    else: digest of the canonical JSON."""

    def __init__(self):
        self.params = ParamsCache()

    @staticmethod
    def kind_of(req):
        return f"{req['kind']}/digest" if "digest" in req else "label1"

    def check(self, req, resp):
        if "digest" in req:
            return canonical_digest(response_json(req, resp)) == req["digest"]
        p = self.params(req["r"], req["s"])
        expect = tl.markov_trace(tl.resolve_braid(p, list(req["word"]), req["n"]))
        kink = -p.a_pow(3)
        return resp == expect * kink ** sum(req["framings"])

    def self_test(self, req, resp):
        if req["kind"] == "z_invariant":
            value, sig = resp
            wrong = (perturb_scalar(value), sig)
        else:
            wrong = perturb_scalar(resp)
        yield ("digest" if "digest" in req else "markov_trace"), self.check(req, wrong)


# -------------------------------------------------------------- braid_tl

# Seconds of scaled request time (see run.py) per block: a 20 s run holds
# 12 blocks, 720 requests.  The median of a run is then steady to a few
# percent; with 480 requests it moved by up to a tenth between seeds.
BRAID_BLOCK_SECONDS = 1.65
BRAID_STRANDS = (3, 4, 5, 6)
BRAID_LEVELS = (3, 4, 5, 6, 7)
BRAID_KINDS = ("braid_detect", "sector_reps", "closure_trace")


# A braid that is trivial at every level makes braid_detect scan every
# cabling and sector at every level: tens of seconds at n >= 4, r >= 6 and
# 3.4 s at n = 3, r = 7, where a typical request takes a tenth of a second.
# So detection words have nonzero exponent sum (never the identity braid),
# except at n = 3, r <= 4, where a full scan costs at most 0.4 s.
FULL_SCAN_CAP = (3, 4)
BRAID_EXTRA_LETTERS = 4  # block b adds b % 4 letters to every word
BRAID_ROOTS_PER_LEVEL = 2


def _braid_word(rng, n, extra, nonzero_writhe):
    """Every generator once plus `extra` more, shuffled, random signs, no
    letter next to its inverse.  A request then builds every generator
    matrix of its (n, level, root), so the cache misses of a run are fixed
    by its classes and roots, and its length by its block, not by what the
    seed happened to draw."""
    while True:
        letters = list(range(1, n)) + [rng.randint(1, n - 1) for _ in range(extra)]
        rng.shuffle(letters)
        word = tuple(rng.choice((1, -1)) * g for g in letters)
        if any(a == -b for a, b in zip(word, word[1:])):
            continue
        if nonzero_writhe and sum(1 if g > 0 else -1 for g in word) == 0:
            continue
        return word


def braid_requests(seed, seconds):
    """Per block, every (kind, strands, level) combination once.  Each class
    alternates between two seeded roots per level, so every run holds the
    same number of distinct (level, root) pairs."""
    rng = random.Random(f"braid_tl:{seed}")
    # sector_reps and closure_trace share their roots, so the checker's
    # sector matrices for a closure trace reuse generators the run built
    roots = {(detect, r): rng.sample(common_units(3 if detect else r, r),
                                     BRAID_ROOTS_PER_LEVEL)
             for detect in (False, True) for r in BRAID_LEVELS}
    out = []
    for b in range(blocks_for(seconds, BRAID_BLOCK_SECONDS)):
        for kind in BRAID_KINDS:
            for n in BRAID_STRANDS:
                for r in BRAID_LEVELS:
                    detect = kind == "braid_detect"
                    capped = detect and (n, r) > FULL_SCAN_CAP
                    out.append({"kind": kind, "n": n, "r": r,
                                "s": roots[detect, r][b % BRAID_ROOTS_PER_LEVEL],
                                "word": _braid_word(rng, n, b % BRAID_EXTRA_LETTERS, capped)})
    rng.shuffle(out)
    return out


def execute_braid(req):
    n, word, r, s = req["n"], req["word"], req["r"], req["s"]
    if req["kind"] == "braid_detect":
        return braids.braid_detect(braids.BraidWord(n, word), range(3, r + 1),
                                   cabling_bound=2, s=s)
    params = QuantumParams(r, s)
    if req["kind"] == "sector_reps":
        b = braids.BraidWord(n, word)
        return [(m, braids.jones_sector_rep(params, b, m).matrix)
                for m in braids.sector_labels(params, n)]
    return tl.markov_trace(tl.resolve_braid(params, list(word), n))


class BraidChecker:
    """The Markov closure trace equals sum_m d_m tr rho_m(b) over the sector
    representations; each side of a request is checked against the other.
    Detection verdicts are recomputed: a witness sector matrix is not the
    identity, and at a trivial level every cabling's sector matrix is."""

    def __init__(self):
        self.params = ParamsCache()

    @staticmethod
    def kind_of(req):
        return req["kind"]

    def _sector_sum(self, p, reps):
        total = p.zero()
        for m, mat in reps:
            total = total + loop_value(p, m) * linalg.mat_trace(mat)
        return total

    def check(self, req, resp):
        n, word, r, s = req["n"], req["word"], req["r"], req["s"]
        if req["kind"] == "braid_detect":
            return self._check_detect(req, resp)
        p = self.params(r, s)
        b = braids.BraidWord(n, word)
        if req["kind"] == "sector_reps":
            if [m for m, _ in resp] != braids.sector_labels(p, n):
                return False
            expect = tl.markov_trace(tl.resolve_braid(p, list(word), n))
            return self._sector_sum(p, resp) == expect
        reps = [(m, braids.jones_sector_rep(p, b, m).matrix)
                for m in braids.sector_labels(p, n)]
        return resp == self._sector_sum(p, reps)

    def _check_detect(self, req, resp):
        n, word, s = req["n"], req["word"], req["s"]
        if not _verdict_shape_ok(resp, 3, req["r"]):
            return False
        b = braids.BraidWord(n, word)
        for r, verdict in resp.verdicts.items():
            p = self.params(r, s)
            if verdict == "nontrivial":
                cab, m = resp.witness[r]
                cw = braids.cable(b, braids.Cabling(cab))
                rep = braids.jones_sector_rep(p, cw, m).matrix
                if linalg.is_identity(p, rep):
                    return False
                continue
            for cab in itertools.product((1, 2), repeat=n):
                cw = braids.cable(b, braids.Cabling(cab))
                for m in braids.sector_labels(p, cw.n):
                    if not linalg.is_identity(p, braids.jones_sector_rep(p, cw, m).matrix):
                        return False
        return True

    def self_test(self, req, resp):
        kind = req["kind"]
        if kind == "braid_detect":
            wrong = flip_first_verdict(resp, ((1,) * req["n"], req["n"] % 2))
        elif kind == "sector_reps":
            wrong = [(m, perturb_matrix(mat) if i == 0 else mat)
                     for i, (m, mat) in enumerate(resp)]
        else:
            wrong = perturb_scalar(resp)
        yield kind, self.check(req, wrong)


WORKLOADS = {
    "mcg_detect": (mcg_requests, execute_mcg, McgChecker),
    "link_eval": (link_requests, execute_link, LinkChecker),
    "braid_tl": (braid_requests, execute_braid, BraidChecker),
}
