"""CLI subcommands: output shapes, determinism, and exit codes."""
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from skeinrep import cli, skein, tqft
from skeinrep.skein import OMEGA, closed_braid_link, split_union, unknot_link


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture
def unknot_file(tmp_path):
    path = tmp_path / "unknot.json"
    path.write_text(json.dumps(unknot_link(0, 0).to_json()))
    return str(path)


def test_eval_link_unknot_label0(capsys, unknot_file):
    code, out = run_cli(capsys, "eval-link", "--r", "5", "--link", unknot_file)
    assert code == 0
    assert out["value"]["approx"] == [1.0, 0.0]
    assert out["value"]["exact"]["coeffs"][0] == "1"


def test_eval_link_hopf(capsys, tmp_path):
    link = closed_braid_link([1, 1], 2, labels=[1, 1])
    path = tmp_path / "hopf.json"
    path.write_text(json.dumps(link.to_json()))
    code, out = run_cli(capsys, "eval-link", "--r", "4", "--link", str(path))
    assert code == 0
    assert isinstance(out["value"]["exact"]["coeffs"], list)


def test_projector(capsys):
    code, out = run_cli(capsys, "projector", "--r", "4", "--k", "2")
    assert code == 0
    diagrams = [t["diagram"] for t in out["terms"]]
    assert len(diagrams) == len(set(diagrams)) == 2  # identity + cup-cap


def test_dump_recoupling(capsys):
    code, out = run_cli(capsys, "dump-recoupling", "--r", "3")
    assert code == 0
    assert "0,0,0" in out["theta"] or any("theta" in k for k in out)


# sha256 of the dump-recoupling stdout, recorded while theta, tet and six_j
# were still computed by division; the values are exact, so the memoized
# products must print the same bytes
DUMP_DIGESTS = {
    (3, 1): "2a4f2ac65d9c1691a62bf644c683c68f0dcce147759f7eb56d06327422155ecc",
    (3, 7): "c6147859f6bc849e90307673b1d9f788f04d72fc3a829b9a9ce9d198387bb3be",
    (4, 1): "c9eb88a673e15d048d1cec71d9f5a2aa75eb9f5320cd6cbbb1c6ee67df3d6ff4",
    (4, 7): "74512fe8f2e53dac6ef2b2cf2160e460c9173db27be0237959ed5af69c637010",
    (5, 1): "603d79d6d517b5abfb18cc35908d77f483b1bbc5b2a3da0c386871f19594198e",
    (5, 7): "62be6cac897f9bece2dacd18e5063b6d43b55251f11420524af8533723094ffe",
    (6, 1): "8d917f79109a23c9881413bea26db900705b85be3fcccac0df8f2d2acd39d7ca",
    (6, 7): "508cb1336aae87f6905c4f1fb61bd9d8603b7998f042833902ef2d4722a9cd26",
}


@pytest.mark.parametrize("r, s", sorted(DUMP_DIGESTS))
def test_dump_recoupling_pinned(capsys, r, s):
    code = cli.run(["dump-recoupling", "--r", str(r), "--s", str(s)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_DIGESTS[(r, s)]


def test_dims_surface(capsys):
    code, out = run_cli(capsys, "dims", "--r", "5", "--surface", "torus")
    assert code == 0 and out == {"dim": 4}


def test_python_m_skeinrep_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "skeinrep", "dims", "--r", "3",
                           "--surface", "torus"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"dim": 2}


# the package's engines off the dims path, the stdlib module whose import
# would pull inspect, ast, dis and tokenize into every launch, and the
# rational and decimal number types, which the integer core never builds
OFF_THE_DIMS_PATH = {"skeinrep.skein", "skeinrep.tl", "skeinrep.braids", "skeinrep.unionfind",
                     "dataclasses", "fractions", "decimal"}


def test_dims_launch_loads_only_its_modules():
    # the modules a dims launch adds to those of a bare interpreter in the
    # same environment: the surface's own, none of the other commands'
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def modules(code):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        return set(done.stderr.split())

    report = "print(*sys.modules, file=sys.stderr)"
    bare = modules(f"import sys; {report}")
    launch = modules("import sys; from skeinrep import cli; "
                     f"code = cli.run(['dims', '--r', '3', '--surface', 'torus']); {report}; "
                     "sys.exit(code)")
    added = launch - bare
    assert added & OFF_THE_DIMS_PATH == set()
    assert {"skeinrep.cli", "skeinrep.errors", "skeinrep.mcg", "skeinrep.tqft"} <= added


def test_dims_spine_file(capsys, tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(tqft.torus_spine().to_json()))
    code, out = run_cli(capsys, "dims", "--r", "5", "--spine", str(path))
    assert code == 0 and out == {"dim": 4}


def test_dims_needs_one_source(capsys):
    code, out = run_cli(capsys, "dims", "--r", "5")
    assert code == 2 and out["error"] == "parse"


def test_rep_matrix(capsys):
    code, out = run_cli(capsys, "rep-matrix", "--r", "3", "--surface", "torus",
                        "--word", "a")
    assert code == 0
    assert out["dim"] == 2
    assert len(out["matrix"]) == 2


def test_rep_matrix_zero_dimensional(capsys):
    code, out = run_cli(capsys, "rep-matrix", "--r", "4", "--surface",
                        "punctured_torus", "--labels", "1", "--word", "a")
    assert code == 0
    assert out["dim"] == 0 and out["matrix"] == []


def test_curve_op(capsys):
    code, out = run_cli(capsys, "curve-op", "--r", "3", "--surface", "torus",
                        "--curve", "a")
    assert code == 0
    assert out["matrix"][0][0]["approx"][0] == pytest.approx(-1.0)  # d = -1 at r=3


def test_trace_identity(capsys):
    code, out = run_cli(capsys, "trace", "--r", "5", "--surface", "torus",
                        "--word", "")
    assert code == 0
    assert out["trace"]["approx"][0] == pytest.approx(4.0)


def test_detect(capsys):
    code, out = run_cli(capsys, "detect", "--surface", "torus", "--word", "a",
                        "--rmax", "5")
    assert code == 0 and out["r0"] == 3
    assert out["verdicts"]["3"] == "nontrivial"


# stdout and exit code of detection runs, recorded while each level was
# still decided on the dense product (`represent`, `jones_sector_rep`): the
# column probe must print the same bytes
BIGELOW = ("-2 -3 -4 -4 -4 -2 -1 -1 -2 3 -4 -3 2 1 1 2 4 4 4 3 2 -4 -4 -4 -4 -4 -1 -2 -2 "
           "-1 -1 -2 1 1 -2 -3 -3 -2 -1 -1 -2 -3 -4 -4 3 2 -1 -1 2 1 1 2 2 1 4 4 4 4 4 "
           "-2 -3 -4 -4 -4 -2 -1 -1 -2 3 4 -3 2 1 1 2 4 4 4 3 2 -4 -4 -4 -4 -4 -1 -2 -2 "
           "-1 -1 -2 1 1 -2 -3 4 4 3 2 1 1 2 3 3 2 -1 -1 2 1 1 2 2 1 4 4 4 4 4")
DETECTION_PINS = [
    (("detect", "--surface", "torus", "--word", "a", "--rmax", "8"), 0,
     '{"r0": 3, "verdicts": {"3": "nontrivial", "4": "nontrivial", "5": "nontrivial", '
     '"6": "nontrivial", "7": "nontrivial", "8": "nontrivial"}, "witness": {"3": [], '
     '"4": [], "5": [], "6": [], "7": [], "8": []}}\n'),
    (("detect", "--surface", "genus2", "--word", " ".join(["b0 b1 b2 b3 b4"] * 6),
      "--rmin", "3", "--rmax", "5"), 0,
     '{"r0": null, "verdicts": {"3": "trivial", "4": "trivial", "5": "trivial"}, '
     '"witness": {}}\n'),
    (("detect", "--surface", "four_punctured_sphere", "--word", "g12 -g23 g34 g23",
      "--rmin", "3", "--rmax", "5"), 0,
     '{"r0": 5, "verdicts": {"3": "trivial", "4": "trivial", "5": "nontrivial"}, '
     '"witness": {"5": [1, 1, 1, 1]}}\n'),
    (("detect", "--surface", "torus", "--word", "zz", "--rmax", "5"), 3,
     '{"error": "domain", "message": "unknown curve \'zz\' on torus"}\n'),
    (("braid-detect", "--n", "5", "--word", BIGELOW, "--rmin", "3", "--rmax", "7"), 0,
     '{"r0": 5, "verdicts": {"3": "trivial", "4": "trivial", "5": "nontrivial", '
     '"6": "trivial", "7": "nontrivial"}, "witness": {"5": {"cabling": [1, 1, 1, 1, 1], '
     '"m": 1}, "7": {"cabling": [1, 1, 1, 1, 1], "m": 1}}}\n'),
    (("braid-detect", "--n", "5", "--word", BIGELOW, "--rmin", "6", "--rmax", "6",
      "--cable-max", "2"), 0,
     '{"r0": 6, "verdicts": {"6": "nontrivial"}, "witness": {"6": {"cabling": '
     '[1, 1, 1, 1, 2], "m": 2}}}\n'),
]


@pytest.mark.parametrize("argv, code, stdout", DETECTION_PINS,
                         ids=["torus-a", "genus2-hyperelliptic", "four-punctured-sphere",
                              "unknown-curve", "bigelow", "bigelow-cabled"])
def test_detection_output_pinned(capsys, argv, code, stdout):
    assert cli.run(list(argv)) == code
    assert capsys.readouterr().out == stdout


def test_braid_rep(capsys):
    code, out = run_cli(capsys, "braid-rep", "--r", "5", "--n", "2",
                        "--word", "1", "--m", "2")
    assert code == 0
    assert out["sectors"][0]["dim"] == 1


def braid_rep_runs():
    """argv of ``braid-rep`` runs: n = 1..5, r = 3..7, two roots each,
    every sector, on the empty word and on a seeded word of 4n letters; the
    Bigelow braid at r = 5..8; then two empty sectors (exit 3)."""
    rng = random.Random(2024)
    runs = []
    for n in range(1, 6):
        for r in range(3, 8):
            gens = [g for g in range(1 - n, n) if g]
            words = [""]
            if gens:
                words.append(" ".join(str(rng.choice(gens)) for _ in range(4 * n)))
            for s in (1, 4 * r - 1):
                runs += [("braid-rep", "--r", str(r), "--s", str(s), "--n", str(n), "--word", w)
                         for w in words]
    runs += [("braid-rep", "--r", str(r), "--n", "5", "--word", BIGELOW) for r in range(5, 9)]
    runs.append(("braid-rep", "--r", "5", "--n", "2", "--word", "1", "--m", "1"))
    runs.append(("braid-rep", "--r", "4", "--n", "3", "--word", "1 2", "--m", "3"))
    return runs


def test_braid_rep_output_pinned(capsys):
    """stdout and exit code of every run of `braid_rep_runs`, recorded while
    the sector matrices were products of `Scalar` matrices: the packed
    residue chain must print the same bytes."""
    record = hashlib.sha256()
    codes = []
    for argv in braid_rep_runs():
        codes.append(cli.run(list(argv)))
        record.update(capsys.readouterr().out.encode())
    assert codes[-2:] == [3, 3] and set(codes[:-2]) == {0}
    assert record.hexdigest() == "ae3d10bd8b37396d2e57c937c7af4adc63859b4989baa06c691b028e7c98a26a"


def test_braid_detect(capsys):
    code, out = run_cli(capsys, "braid-detect", "--n", "2", "--word", "1",
                        "--rmax", "4")
    assert code == 0 and out["r0"] == 3
    assert out["witness"]["3"] == {"cabling": [1, 1], "m": 0}


def test_verify_moves(capsys, unknot_file, tmp_path):
    moves = tmp_path / "moves.json"
    moves.write_text(json.dumps([
        {"type": "balanced_stabilization"},
        {"type": "circumcision_pair"},
        {"type": "circumcision_pair", "around": 0},
    ]))
    code, out = run_cli(capsys, "verify-moves", "--r", "3",
                        "--link", unknot_file, "--moves", str(moves))
    assert code == 0 and out["all_preserved"] is True
    assert len(out["results"]) == 3


@pytest.fixture
def slide_file(tmp_path):
    """A split omega loop (component 0) beside a 1-labelled unknot."""
    path = tmp_path / "slide.json"
    path.write_text(json.dumps(split_union(unknot_link(OMEGA, 1), unknot_link(1, 0)).to_json()))
    return str(path)


def run_moves(capsys, tmp_path, link_file, moves):
    path = tmp_path / "moves.json"
    path.write_text(json.dumps(moves))
    return run_cli(capsys, "verify-moves", "--r", "3", "--link", link_file, "--moves", str(path))


def test_verify_moves_integral_indices(capsys, tmp_path, slide_file):
    """Component indices are JSON integers, which hold 1.0; 'around' may
    be null."""
    code, out = run_moves(capsys, tmp_path, slide_file, [
        {"type": "handle_slide", "slide": 1, "over": 0},
        {"type": "handle_slide", "slide": 1.0, "over": 0.0},
        {"type": "circumcision_pair", "around": None},
    ])
    assert code == 0 and out["all_preserved"] is True


def test_verify_moves_evaluates_the_input_once(capsys, tmp_path, monkeypatch):
    """Each move's result is evaluated once and the unchanged input once,
    not once per move."""
    link = tmp_path / "trefoil.json"
    link.write_text(json.dumps(split_union(closed_braid_link([1, 1, 1], 2, labels=[2]),
                                           unknot_link(OMEGA, 1)).to_json()))
    moves = [{"type": "handle_slide", "slide": 0, "over": 1},
             {"type": "balanced_stabilization"},
             {"type": "circumcision_pair", "around": None},
             {"type": "circumcision_pair", "around": 0}]
    path = tmp_path / "moves.json"
    path.write_text(json.dumps(moves))
    calls = []
    evaluate = skein.evaluate
    monkeypatch.setattr(skein, "evaluate", lambda p, lk: calls.append(lk) or evaluate(p, lk))
    code, out = run_cli(capsys, "verify-moves", "--r", "5", "--link", str(link),
                        "--moves", str(path))
    assert code == 0 and out["all_preserved"] is True
    assert [r["preserved"] for r in out["results"]] == [True] * 4
    assert len(calls) == 1 + len(moves)


@pytest.mark.parametrize("move", [
    {"type": "handle_slide", "slide": 1.9, "over": "0"},
    {"type": "handle_slide", "slide": True, "over": 0},
    {"type": "circumcision_pair", "around": 0.5},
    {"type": "handle_slide", "slide": 1, "over": 0, "note": "slide"},
    {"type": "balanced_stabilization", "around": 0},
    {"type": "handle_slide", "slide": 1},
    {"slide": 1, "over": 0},
    {"type": "twist"},
    [1],
])
def test_exit_parse_bad_move(capsys, tmp_path, slide_file, move):
    """Non-integer indices, keys outside the move's type, a missing key and
    a missing or unknown type."""
    code, out = run_moves(capsys, tmp_path, slide_file, [move])
    assert code == 2 and out["error"] == "parse"


def test_exit_parse_missing_file(capsys):
    code, out = run_cli(capsys, "eval-link", "--r", "5", "--link", "/no/file")
    assert code == 2 and out["error"] == "parse"


def test_exit_parse_bad_subcommand(capsys):
    code, out = run_cli(capsys, "frobnicate")
    assert code == 2


def test_exit_parse_bad_word(capsys):
    code, out = run_cli(capsys, "braid-rep", "--r", "4", "--n", "2",
                        "--word", "one two")
    assert code == 2 and out["error"] == "parse"


@pytest.mark.parametrize("argv", [
    ("detect", "--surface", "torus", "--word", "a", "--rmin", "6", "--rmax", "4"),
    ("braid-detect", "--n", "3", "--word", "1 2", "--rmin", "6", "--rmax", "4"),
])
def test_exit_parse_empty_level_range(capsys, argv):
    """A scan over no level would read as never detected."""
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out["error"] == "parse"


@pytest.mark.parametrize("word", ["-", "a +"])
def test_exit_parse_bare_sign_in_twist_word(capsys, word):
    code, out = run_cli(capsys, "rep-matrix", "--r", "4", "--surface", "torus",
                        "--word", word)
    assert code == 2 and out["error"] == "parse"


def leading_inverse(rng, letters):
    """A word of one to four letters, the first inverse."""
    return " ".join(["-" + rng.choice(letters)]
                    + [rng.choice(("", "-")) + rng.choice(letters) for _ in range(rng.randint(0, 3))])


def test_word_leading_with_an_inverse_letter(capsys):
    """`--word X` reads X as the word whatever it starts with.  Seeded
    twist and braid words that lead with an inverse letter, with unknown
    curves and out-of-range generators among the letters, give one JSON
    object, exit 0, 2 or 3, never an internal failure, and the same output
    as `--word=X`, with the word before or after the other options.  The
    abbreviations `--w X`, `--wo X` and `--wor X`, which argparse accepts
    for `--word`, give that output too."""
    rng = random.Random(42)
    runs = [("rep-matrix", "--r", "4", "--surface", "torus", "--word", "-a"),
            ("detect", "--surface", "genus2", "--word", "-b0", "--rmax", "3"),
            ("trace", "--r", "3", "--surface", "torus", "--word", "- a")]
    for _ in range(8):
        surface, letters = rng.choice((("torus", ["a", "b", "c", "d", "zz"]),
                                       ("genus2", ["b0", "b1", "b2", "b3", "b4", "zz"])))
        word, r = leading_inverse(rng, letters), str(rng.randint(3, 4))
        runs += [("rep-matrix", "--r", r, "--surface", surface, "--word", word),
                 ("trace", "--word", word, "--r", r, "--surface", surface),
                 ("detect", "--surface", surface, "--word", word, "--rmax", "4")]
        n = rng.randint(2, 4)
        word = leading_inverse(rng, [str(g) for g in range(1, n + 1)])
        runs += [("braid-rep", "--r", r, "--n", str(n), "--word", word),
                 ("braid-detect", "--word", word, "--n", str(n), "--rmax", "4")]
    codes = set()
    for argv in runs:
        at = argv.index("--word")
        bound = argv[:at] + (f"--word={argv[at + 1]}",) + argv[at + 2:]
        short = [argv[:at] + (prefix,) + argv[at + 1:] for prefix in ("--w", "--wo", "--wor")]
        outs = []
        for args in (argv, bound, *short):
            code = cli.run(list(args))
            text = capsys.readouterr().out
            assert code in (0, 2, 3) and text.count("\n") == 1, (args, text)
            obj = json.loads(text)
            assert isinstance(obj, dict) and obj.get("error") != "internal", (args, text)
            outs.append((code, text))
        assert outs[0] == outs[1], argv
        assert outs[2:] == [outs[0]] * len(short), argv
        codes.add(outs[0][0])
    assert codes == {0, 2, 3}


@pytest.mark.parametrize("labels", ["1,,1,1,1", "2,", ",2", "1,1,1,1,", "1 1,1 1", "1,x,1,1"])
def test_exit_parse_empty_or_bad_label_field(capsys, labels):
    """An empty field between commas is not skipped: "1,,1,1,1" would
    otherwise read as four labels."""
    code, out = run_cli(capsys, "dims", "--r", "4", "--surface", "four_punctured_sphere",
                        "--labels", labels)
    assert code == 2 and out["error"] == "parse"


@pytest.mark.parametrize("labels", ["1,1,1,1", "1, 1, 1, 1", "1 1 1 1"])
def test_label_lists_by_commas_or_spaces(capsys, labels):
    code, out = run_cli(capsys, "dims", "--r", "4", "--surface", "four_punctured_sphere",
                        "--labels", labels)
    assert code == 0 and out == {"dim": 2}


def test_exit_domain_bad_label(capsys):
    code, out = run_cli(capsys, "projector", "--r", "4", "--k", "7")
    assert code == 3 and out["error"] == "domain"


@pytest.mark.parametrize("argv", [
    ("rep-matrix", "--r", "4", "--surface", "punctured_torus", "--labels", "7", "--word", "a"),
    ("curve-op", "--r", "4", "--surface", "punctured_torus", "--labels", "-2", "--curve", "a"),
    ("curve-op", "--r", "4", "--surface", "four_punctured_sphere", "--labels", "1,1,1,9",
     "--curve", "g23"),
    ("dims", "--r", "4", "--surface", "four_punctured_sphere", "--labels", "1,1,1,9"),
    ("rep-matrix", "--r", "4", "--surface", "genus2", "--labels", "2", "--word", "b0"),
    ("trace", "--r", "4", "--surface", "genus2", "--labels", "1", "--word", "b0"),
    ("curve-op", "--r", "4", "--surface", "torus", "--labels", "0", "--curve", "a"),
])
def test_exit_domain_bad_boundary_label(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 3 and out["error"] == "domain"


def test_exit_domain_bad_spine_boundary_label(capsys, tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(tqft.comb_spine((1, 1, 1, 9)).to_json()))
    code, out = run_cli(capsys, "dims", "--r", "4", "--spine", str(path))
    assert code == 3 and out["error"] == "domain"


def _hopf_with_arc(arc):
    """The Hopf link's JSON with its arc 1 renamed to arc, everywhere."""
    blob = closed_braid_link([1, 1], 2).to_json()
    swap = lambda a: arc if a == 1 else a  # noqa: E731
    for comp in blob["components"]:
        comp["arcs"] = [swap(a) for a in comp["arcs"]]
    blob["crossings"] = [[swap(a) for a in x] for x in blob["crossings"]]
    return blob


@pytest.mark.parametrize("blob", [
    {"version": 1, "components": [{"label": 1.7, "framing": 0.9, "arcs": []}], "crossings": []},
    {"version": 1, "components": [{"label": 1, "framing": 0.5}], "crossings": []},
    {"version": 1, "components": [{"label": True}], "crossings": []},
    {"version": 1, "components": [{"label": "1"}], "crossings": []},
    {"version": 1, "components": [{"label": 1, "framing": "2"}], "crossings": []},
    _hopf_with_arc(1.2),
    _hopf_with_arc("1"),
])
def test_exit_parse_non_integer_link_field(capsys, tmp_path, blob):
    path = tmp_path / "link.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(capsys, "eval-link", "--r", "4", "--link", str(path))
    assert code == 2 and out["error"] == "parse"


def test_eval_link_integral_floats_are_integers(capsys, tmp_path):
    """JSON Schema's integer holds 1.0, so it reads as 1."""
    exact = {}
    for label, framing in ((1, 2), (1.0, 2.0)):
        path = tmp_path / "link.json"
        path.write_text(json.dumps({"version": 1, "components": [
            {"label": label, "framing": framing}], "crossings": []}))
        code, out = run_cli(capsys, "eval-link", "--r", "4", "--link", str(path))
        assert code == 0
        exact[label] = out["value"]["exact"]
    assert exact[1] == exact[1.0]


@pytest.mark.parametrize("label", [1.5, True, "1"])
def test_exit_parse_non_integer_spine_boundary_label(capsys, tmp_path, label):
    blob = tqft.comb_spine((1, 1, 1, 1)).to_json()
    blob["boundary"]["p1"] = label
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(capsys, "dims", "--r", "4", "--spine", str(path))
    assert code == 2 and out["error"] == "parse"


@pytest.mark.parametrize("blob", [
    {"version": 1, "components": [{"label": 1}], "crossings": [], "name": "unknot"},
    {"version": 1, "components": [{"label": 1, "colour": 2}], "crossings": []},
    {"version": 1, "components": [[1]], "crossings": []},
    [{"label": 1}],
    {"components": [{"label": 1}], "crossings": []},
])
def test_exit_parse_link_outside_schema(capsys, tmp_path, blob):
    """Unknown keys (the schema forbids additional properties), non-objects
    where the schema asks for an object, and a missing (required) version."""
    path = tmp_path / "link.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(capsys, "eval-link", "--r", "4", "--link", str(path))
    assert code == 2 and out["error"] == "parse"


@pytest.mark.parametrize("blob", [
    {"version": 1, "edges": [7], "vertices": []},
    {"version": 1, "edges": ["x", "y", "z"], "vertices": [["x", "y", "z"], ["x", "y", 0]]},
    {"version": 1, "edges": ["a"], "vertices": [], "genus": 1},
    {"version": 1, "edges": ["a"], "vertices": [], "boundary": [1]},
    ["a"],
    {"edges": ["a"], "vertices": []},
    {"version": 1, "edges": "xmy", "vertices": [["x", "x", "m"], ["y", "y", "m"]]},
    {"version": 1, "edges": ["x", "m", "y"], "vertices": ["xxm", "yym"]},
])
def test_exit_parse_spine_outside_schema(capsys, tmp_path, blob):
    """Edge names that are not strings, unknown keys, non-objects where the
    schema asks for an object, a missing (required) version, and strings
    where the schema asks for an array of edges or of a vertex's edges."""
    path = tmp_path / "spine.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(capsys, "dims", "--r", "4", "--spine", str(path))
    assert code == 2 and out["error"] == "parse"


@pytest.mark.parametrize("argv", [
    ("detect", "--surface", "torus", "--word", "a", "--rmin", "3", "--rmax", "5", "--s", "3"),
    ("detect", "--surface", "torus", "--word", "a", "--rmin", "2", "--rmax", "4"),
    ("braid-detect", "--n", "3", "--word", "1 2", "--rmin", "3", "--rmax", "4", "--s", "3"),
    ("braid-detect", "--n", "2", "--word", "1", "--rmax", "4", "--cable-max", "0"),
])
def test_exit_domain_bad_scan(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 3 and out["error"] == "domain"


# every subcommand at a single level, with the arguments it needs besides --r
SINGLE_LEVEL = [
    ("eval-link", "--link", "-"),
    ("projector", "--k", "1"),
    ("dump-recoupling",),
    ("dims", "--surface", "torus"),
    ("rep-matrix", "--surface", "torus", "--word", "a"),
    ("curve-op", "--surface", "torus", "--curve", "a"),
    ("trace", "--surface", "torus", "--word", "a"),
    ("braid-rep", "--n", "2", "--word", "1"),
    ("verify-moves", "--link", "-", "--moves", "-"),
]


@pytest.mark.parametrize("level", [("--r", "2"), ("--r", "5", "--s", "2")])
@pytest.mark.parametrize("argv", SINGLE_LEVEL, ids=lambda argv: argv[0])
def test_exit_domain_bad_level(capsys, argv, level):
    """An invalid (r, s) is a domain error, as at a level of a scan; it is
    found before any input is read."""
    code, out = run_cli(capsys, *argv, *level)
    assert code == 3 and out["error"] == "domain"


def test_exit_domain_bad_curve(capsys):
    code, out = run_cli(capsys, "curve-op", "--r", "4", "--surface", "torus",
                        "--curve", "zz")
    assert code == 3 and out["error"] == "domain"


def test_exit_domain_bad_curve_where_no_block_is_left(capsys):
    """No block of the four-punctured sphere can witness at r = 3, and the
    word's curves are still checked there."""
    code, out = run_cli(capsys, "detect", "--surface", "four_punctured_sphere", "--word", "zz",
                        "--rmin", "3", "--rmax", "3")
    assert code == 3 and out == {"error": "domain",
                                 "message": "unknown curve 'zz' on four_punctured_sphere"}


def test_exit_domain_bad_surface(capsys):
    code, out = run_cli(capsys, "rep-matrix", "--r", "4", "--surface", "plane",
                        "--word", "a")
    assert code == 3


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "dump-recoupling", "--r", "4")
    _, out2 = run_cli(capsys, "dump-recoupling", "--r", "4")
    assert out1 == out2
