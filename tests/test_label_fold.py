"""The label fold of ``skein.evaluate``: at a primitive 4r-th root, J = r - 2
is a simple current, so a component labelled J - k is the same link with
that component labelled k, times a signed power of A:

    <L; l_i = J - k> = (-1)^(J + (J + k) n_i + sum_{m != i} l_m lk(i, m))
                       A^(J (J + 2) n_i) <L; l_i = k>,

n_i the framing plus blackboard self-writhe of component i, and
s_(J-k) = (-1)^J s_k.  The identity is checked here on unfolded sweeps
(``skein._evaluate_labeled``), with its sign and exponent written out as
above and the linking numbers read off ``skein.linking_matrix``;
``evaluate`` is checked byte for byte against ``oracles.unfolded_evaluate``,
one sweep per labeling; and three links whose high-label sweeps were slow
are pinned to the sha256 of their ``to_json`` from the unfolded sweeps.
"""
import hashlib
import json
import random
from math import gcd

import pytest

from oracles import unfolded_evaluate
from skeinrep import cli
from skeinrep import skein as sk
from skeinrep.scalars import QuantumParams, make_params
from skeinrep.skein import DomainError, closed_braid_link

LEVELS = range(3, 9)


def second_root(r):
    """The least s > 1 with A = e^{2 pi i s/4r} primitive."""
    return next(s for s in range(3, 4 * r) if gcd(s, 4 * r) == 1)


def digest(value):
    return hashlib.sha256(json.dumps(value.to_json(), sort_keys=True).encode()).hexdigest()


def cabled_weight(link, labels):
    """The X nodes of the cabled diagram: m n for a crossing of labels m, n."""
    comp_of = link.comp_of
    return sum(labels[comp_of[a]] * labels[comp_of[b]] for a, b, _, _ in link.crossings)


def random_braid(rng, strands, crossings):
    n = rng.randint(*strands)
    return [rng.choice((1, -1)) * rng.randint(1, n - 1)
            for _ in range(rng.randint(*crossings))], n


# ----- the identity, one component at a time -----

def mirror_factor(params, lk, labels, i, k):
    """(-1)^(J + (J + k) n_i + sum_{m != i} l_m lk(i, m)) A^(J (J + 2) n_i)."""
    j, n = params.r - 2, lk[i][i]
    odd = j + (j + k) * n + sum(l * lk[i][m] for m, l in enumerate(labels) if m != i)
    value = params.a_pow(j * (j + 2) * n)
    return -value if odd % 2 else value


@pytest.mark.parametrize("r", LEVELS)
def test_mirror_identity_on_closed_braids(r):
    """For every label k of one component, the unfolded sweep at J - k is
    the mirror factor times the unfolded sweep at k, the other components
    keeping their labels in 0..J and framings in -2..2."""
    params, j = make_params(r), r - 2
    rng = random.Random(f"mirror:{r}")
    checked = 0
    while checked < 6:
        word, n = random_braid(rng, (2, 3), (0, 3))
        comps = len(closed_braid_link(word, n).components)
        base = [rng.randint(0, j) for _ in range(comps)]
        link = closed_braid_link(word, n, base, [rng.randint(-2, 2) for _ in range(comps)])
        lk = sk.linking_matrix(link)
        i = rng.randrange(comps)
        if any(cabled_weight(link, base[:i] + [k] + base[i + 1:]) > 36 for k in range(j + 1)):
            continue
        swept = {}

        def value(k):
            if k not in swept:
                labels = base[:i] + [k] + base[i + 1:]
                swept[k] = sk._evaluate_labeled(params, sk._reduction(link), labels)
            return swept[k]

        for k in range(j + 1):
            assert value(j - k) == mirror_factor(params, lk, base, i, k) * value(k), \
                (link.to_json(), i, k)
        checked += 1


@pytest.mark.parametrize("r", LEVELS)
def test_omega_weights_mirror(r):
    params = make_params(r)
    j, weights = r - 2, sk.omega_weights(params)
    for k in range(j + 1):
        assert weights[j - k] == (-weights[k] if j % 2 else weights[k])


# ----- evaluate against one sweep per labeling -----

def random_link(rng, r):
    """A closed braid with up to three omega components and fixed labels
    in 0..r-2, at least one above (r-2)/2 when there is a fixed one;
    framings in -2..2.  The cabled weight, with an omega component at its
    top label r-2, is at most 48, and at most 300 over the number of
    unfolded sweeps, (r-1)^(omega components)."""
    j = r - 2
    while True:
        word, n = random_braid(rng, (2, 4), (1, 5))
        comps = len(closed_braid_link(word, n).components)
        omegas = min(comps, rng.choice((0, 1, 2, 3)))
        labels = [sk.OMEGA] * omegas + [rng.randint(0, j) for _ in range(comps - omegas)]
        if comps > omegas and j:
            labels[-1] = rng.randint(j // 2 + 1, j)
        rng.shuffle(labels)
        link = closed_braid_link(word, n, labels, [rng.randint(-2, 2) for _ in range(comps)])
        top = [j if label == sk.OMEGA else label for label in labels]
        weight = cabled_weight(link, top)
        if weight <= 48 and weight * (r - 1) ** omegas <= 300:
            return link


@pytest.mark.parametrize("r", LEVELS)
def test_evaluate_matches_unfolded_sweeps(r):
    """to_json bytes of ``evaluate`` and of the unfolded sum agree at two
    roots per level."""
    rng = random.Random(f"fold:{r}")
    for s in (1, second_root(r)):
        params = QuantumParams(r, s)
        for _ in range(10):
            link = random_link(rng, r)
            assert digest(sk.evaluate(params, link)) == digest(unfolded_evaluate(params, link)), \
                (r, s, link.to_json())


@pytest.mark.parametrize("r, squares", [(3, 3), (4, 3), (5, 2)])
def test_three_linked_omega_components(r, squares):
    """All-omega closures of pure 3-braids, products of `squares` squared
    generators: three linked omega components, (r-1)^3 unfolded sweeps."""
    rng = random.Random(f"three:{r}")
    for s in (1, second_root(r)):
        params = QuantumParams(r, s)
        for _ in range(2):
            word = [g for _ in range(squares) for g in [rng.choice((1, -1, 2, -2))] * 2]
            link = closed_braid_link([1, 1, 2, 2] + word, 3, [sk.OMEGA] * 3,
                                     [rng.randint(-2, 2) for _ in range(3)])
            assert digest(sk.evaluate(params, link)) == digest(unfolded_evaluate(params, link)), \
                (r, s, link.to_json())


def test_sweeps_only_canonical_labelings(monkeypatch):
    """Every swept labeling has no label above J/2, and no labeling is
    swept twice."""
    swept = []
    sweep = sk._evaluate_labeled

    def counting(params, reduced, labels):
        swept.append(tuple(labels))
        return sweep(params, reduced, labels)

    monkeypatch.setattr(sk, "_evaluate_labeled", counting)
    params = make_params(8)
    sk.evaluate(params, closed_braid_link([1, 1], 2, [sk.OMEGA, sk.OMEGA], [3, 3]))
    assert len(swept) == len(set(swept)) <= 4 ** 2
    assert all(2 * k <= 6 for labels in swept for k in labels)
    swept.clear()
    sk.evaluate(make_params(7), closed_braid_link([1, 1, 1], 2, [5]))
    assert swept == [(0,)]


# ----- pins: digests of the unfolded sweeps -----

PINS = [
    # the trefoil labelled 5 at r = 7: a 5-cabled trefoil through P_5 unfolded
    (7, [1, 1, 1], [5], [0],
     "4204ac0c5f199a317914efeb106f4640f4091a425211f44c7e5daeff4b787743"),
    # the (5, 5) Hopf clasp at r = 7
    (7, [1, 1], [5, 5], [0, 0],
     "e1f53e74327e7df871245d853971450451d188623d7208901b938ee7a679540a"),
    # the all-omega Hopf link with framings (3, 3) at r = 8: 49 sweeps unfolded
    (8, [1, 1], [sk.OMEGA, sk.OMEGA], [3, 3],
     "ed8d3724a29bf100983bab1ae0ab1c1e859ed946761727c720a154f23f179239"),
]


@pytest.mark.parametrize("r, word, labels, framings, want", PINS)
def test_pinned_high_label_values(r, word, labels, framings, want):
    link = closed_braid_link(word, 2, labels, framings)
    assert digest(sk.evaluate(make_params(r), link)) == want


# ----- labels out of range raise before any fold -----

@pytest.mark.parametrize("r", (4, 7))
@pytest.mark.parametrize("bad", ("top", -1))
def test_bad_label_raises_before_fold(r, bad, tmp_path, capsys):
    label = r - 1 if bad == "top" else bad
    link = closed_braid_link([1, 1], 2, [sk.OMEGA, label], [1, 0])
    message = f"component 1 label {label} outside 0..{r - 2}"
    with pytest.raises(DomainError) as exc:
        sk.evaluate(make_params(r), link)
    assert str(exc.value) == message
    path = tmp_path / "link.json"
    path.write_text(json.dumps(link.to_json()))
    code = cli.run(["eval-link", "--r", str(r), "--link", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out == {"error": "domain", "message": message}
