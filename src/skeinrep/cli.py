"""Command-line interface: JSON in, JSON out.

Exit codes: 0 success, 2 parse/format errors, 3 domain errors,
4 internal failures.

Each subcommand imports the modules it runs when it runs, so a process
loads only its own command's modules.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import (DomainError, LinkFormatError, SpineFormatError, json_int, json_object,
                     json_str)
from .scalars import QuantumParams, Scalar

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


class ParseFailure(ValueError):
    pass


def _scalar_json(x: Scalar, params: QuantumParams):
    """The exact value and its embedding at the command's root."""
    v = x.embed(params)
    return {"exact": x.to_json(), "approx": [v.real, v.imag]}


def _matrix_json(m, params):
    return [[_scalar_json(x, params) for x in row] for row in m]


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read JSON from {path}: {exc}") from exc


def _make_params(args) -> QuantumParams:
    """The command's root; an invalid (r, s) is a domain error, as it is at
    a level of a scan."""
    try:
        return QuantumParams(args.r, args.s)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc


def _load_link(path):
    from .skein import LabeledLink
    try:
        return LabeledLink.from_json(_load_json(path))
    except LinkFormatError as exc:
        raise ParseFailure(str(exc)) from exc


def _parse_braid_word(text) -> tuple:
    try:
        return tuple(int(t) for t in text.split())
    except ValueError as exc:
        raise ParseFailure(f"bad braid word {text!r}: generators are signed integers") from exc


def _parse_twist_word(text) -> list:
    from . import mcg
    try:
        return mcg.parse_word(text)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def _level_range(args) -> range:
    """The scanned levels rmin..rmax; an empty range is a parse error, since
    a scan that ran no level would read as never detected."""
    if args.rmin > args.rmax:
        raise ParseFailure(f"--rmin {args.rmin} exceeds --rmax {args.rmax}")
    return range(args.rmin, args.rmax + 1)


def _parse_labels(text):
    """Labels separated by commas or by spaces; an empty field is an error."""
    try:
        return tuple(int(t) for t in (text.split(",") if "," in text else text.split()))
    except ValueError as exc:
        raise ParseFailure(f"bad label list {text!r}") from exc


# ----------------------------------------------------------- subcommands

def cmd_eval_link(args):
    from . import skein
    params = _make_params(args)
    link = _load_link(args.link)
    value = skein.evaluate(params, link)
    return {"r": params.r, "s": params.s, "value": _scalar_json(value, params)}


def cmd_projector(args):
    from . import tl
    params = _make_params(args)
    if not 0 <= args.k <= params.r - 2:
        raise DomainError(f"projector label {args.k} out of range 0..{params.r - 2}")
    p = tl.jones_wenzl(params, args.k)
    terms = sorted(((diag.parens(), coeff) for diag, coeff in p.terms.items()))
    return {"r": params.r, "s": params.s, "k": args.k,
            "terms": [{"diagram": d, "coeff": _scalar_json(c, params)} for d, c in terms]}


def cmd_dump_recoupling(args):
    from . import recoupling
    params = _make_params(args)
    return recoupling.dump_tables(params)


def cmd_dims(args):
    params = _make_params(args)
    if bool(args.spine) == bool(args.surface):
        raise ParseFailure("dims needs exactly one of --spine or --surface")
    if args.spine:
        from . import tqft
        try:
            spine = tqft.Spine.from_json(_load_json(args.spine))
        except SpineFormatError as exc:
            raise ParseFailure(str(exc)) from exc
        return {"dim": tqft.dim(params, spine)}
    from . import mcg
    model = mcg.surface_model(args.surface, _parse_labels(args.labels))
    return {"dim": model.dim(params)}


def cmd_rep_matrix(args):
    from . import mcg
    params = _make_params(args)
    model = mcg.surface_model(args.surface, _parse_labels(args.labels))
    word = _parse_twist_word(args.word)
    rep = model.represent(params, word)
    return {"r": params.r, "s": params.s, "surface": rep.surface,
            "labels": list(rep.labels), "dim": rep.dim,
            "matrix": _matrix_json(rep.matrix, params)}


def cmd_curve_op(args):
    from . import mcg
    params = _make_params(args)
    model = mcg.surface_model(args.surface, _parse_labels(args.labels))
    rep = model.curve_operator(params, args.curve)
    return {"r": params.r, "s": params.s, "surface": rep.surface,
            "labels": list(rep.labels), "curve": args.curve,
            "matrix": _matrix_json(rep.matrix, params)}


def cmd_trace(args):
    from . import mcg
    params = _make_params(args)
    model = mcg.surface_model(args.surface, _parse_labels(args.labels))
    word = _parse_twist_word(args.word)
    value = mcg.mapping_torus_trace(model, params, word)
    return {"r": params.r, "s": params.s, "surface": model.name,
            "trace": _scalar_json(value, params)}


def cmd_detect(args):
    from . import mcg
    word = _parse_twist_word(args.word)
    res = mcg.detect(args.surface, word, _level_range(args), s=args.s)
    return {"r0": res.r0,
            "verdicts": {str(r): v for r, v in sorted(res.verdicts.items())},
            "witness": {str(r): list(w) for r, w in sorted(res.witness.items())}}


def cmd_braid_rep(args):
    from . import braids
    params = _make_params(args)
    braid = braids.BraidWord(args.n, _parse_braid_word(args.word))
    sectors = [args.m] if args.m is not None else braids.sector_labels(params, args.n)
    out = []
    for m in sectors:
        rep = braids.jones_sector_rep(params, braid, m)
        out.append({"m": m, "dim": rep.dim, "matrix": _matrix_json(rep.matrix, params)})
    return {"r": params.r, "s": params.s, "n": args.n, "sectors": out}


def cmd_braid_detect(args):
    from . import braids
    braid = braids.BraidWord(args.n, _parse_braid_word(args.word))
    res = braids.braid_detect(braid, _level_range(args),
                              cabling_bound=args.cable_max, s=args.s)
    witness = {str(r): {"cabling": list(c), "m": m}
               for r, (c, m) in sorted(res.witness.items())}
    return {"r0": res.r0,
            "verdicts": {str(r): v for r, v in sorted(res.verdicts.items())},
            "witness": witness}


def _move_from_json(obj):
    """One entry of a moves list: an object holding only its type's keys,
    with component indices JSON integers ('around' may be null or absent)."""
    from . import skein
    try:
        t = json_str(json_object(obj).get("type"))
        keys = {"handle_slide": ("type", "slide", "over"),
                "balanced_stabilization": ("type",),
                "circumcision_pair": ("type", "around")}.get(t)
        if keys is None:
            raise ValueError(f"unknown move type {t!r}")
        json_object(obj, keys)
        if t == "handle_slide":
            return skein.HandleSlide(json_int(obj["slide"]), json_int(obj["over"]))
        if t == "balanced_stabilization":
            return skein.BalancedStabilization()
        around = obj.get("around")
        return skein.CircumcisionPair(None if around is None else json_int(around))
    except KeyError as exc:
        raise ParseFailure(f"move {obj!r} lacks the key {exc}") from exc
    except ValueError as exc:
        raise ParseFailure(f"bad move {obj!r}: {exc}") from exc


def cmd_verify_moves(args):
    from . import skein
    params = _make_params(args)
    link = _load_link(args.link)
    moves = _load_json(args.moves)
    if not isinstance(moves, list):
        raise ParseFailure("moves file must hold a JSON list")
    # each move is parsed just before it is checked, so a bad move raises
    # after the checks of the moves ahead of it
    oks = skein.verify_moves(params, link, map(_move_from_json, moves))
    return {"r": params.r, "s": params.s, "all_preserved": all(oks),
            "results": [{"move": obj, "preserved": ok} for obj, ok in zip(moves, oks)]}


# ----------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseFailure(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="skeinrep", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, level=True, **kw):
        """A subcommand; one at a single level takes --r."""
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--s", type=int, default=1, help="root-of-unity twist s")
        if level:
            p.add_argument("--r", type=int, required=True)
        return p

    p = add("eval-link", cmd_eval_link, help="evaluate a labeled link diagram")
    p.add_argument("--link", required=True, help="link JSON file ('-' = stdin)")

    p = add("projector", cmd_projector, help="dump a Jones-Wenzl projector")
    p.add_argument("--k", type=int, required=True)

    add("dump-recoupling", cmd_dump_recoupling, help="dump recoupling tables")

    p = add("dims", cmd_dims, help="dimension of a TQFT space")
    p.add_argument("--spine", help="spine JSON file")
    p.add_argument("--surface", help="named surface")
    p.add_argument("--labels", default="", help="boundary labels")

    p = add("rep-matrix", cmd_rep_matrix, help="representation matrix of a twist word")
    p.add_argument("--surface", required=True)
    p.add_argument("--labels", default="")
    p.add_argument("--word", required=True, help="e.g. 'b0 b1 -b2'")

    p = add("curve-op", cmd_curve_op, help="curve operator matrix")
    p.add_argument("--surface", required=True)
    p.add_argument("--labels", default="")
    p.add_argument("--curve", required=True)

    p = add("trace", cmd_trace, help="mapping-torus trace of a twist word")
    p.add_argument("--surface", required=True)
    p.add_argument("--labels", default="")
    p.add_argument("--word", required=True)

    p = add("detect", cmd_detect, level=False, help="least r detecting a mapping class")
    p.add_argument("--surface", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--rmin", type=int, default=3)
    p.add_argument("--rmax", type=int, required=True)

    p = add("braid-rep", cmd_braid_rep, help="Jones sector matrices of a braid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True, help="e.g. '1 2 -1'")
    p.add_argument("--m", type=int, default=None, help="one sector only")

    p = add("braid-detect", cmd_braid_detect, level=False,
            help="detection search for a braid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--rmin", type=int, default=3)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--cable-max", type=int, default=1)

    p = add("verify-moves", cmd_verify_moves, help="check moves preserve the bracket")
    p.add_argument("--link", required=True)
    p.add_argument("--moves", required=True, help="JSON list of move descriptions")

    return top


def _bind_words(argv):
    """`argv` with each `--word X` as `--word=X`: argparse takes a value
    that starts with '-' and is not a number for an option, and a twist
    word may start with an inverse letter ('-a').  The abbreviations that
    argparse accepts for `--word` (`--w`, `--wo`, `--wor`) are bound too."""
    out = []
    for arg in argv:
        if out and len(out[-1]) > 2 and "--word".startswith(out[-1]):
            out[-1] = f"--word={arg}"
        else:
            out.append(arg)
    return out


def run(argv) -> int:
    try:
        args = build_parser().parse_args(_bind_words(argv))
        out, code = args.fn(args), 0
    except ParseFailure as exc:
        out, code = {"error": "parse", "message": str(exc)}, EXIT_PARSE
    except (DomainError, LinkFormatError, SpineFormatError) as exc:
        out, code = {"error": "domain", "message": str(exc)}, EXIT_DOMAIN
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        out = {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}
        code = EXIT_INTERNAL
    json.dump(out, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
