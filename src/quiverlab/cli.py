"""Command-line front end.

One subcommand per library operation.  The quiver comes either from a
spec file (``--quiver path``) or from ``--type``/``--rank``; classes
are written in segment syntax (``"[1,2]+[2,3]"``, linear type A) or
coordinate syntax (``"1,1,0 + 0,1,1"``).

A pair of classes may be given as two arguments (a leading comma on the
second is tolerated) or as one argument split at a top-level comma,
e.g. ``hom "[2,3]","[1,2]"``; the one-argument form needs the bracket
syntax.

Exit codes: 0 = success / true / passes; 3 = false / cannot_be_simple;
4 = abstain; 2 = parse or usage error; 5 = enumeration cap exceeded;
1 = domain error (violated precondition).  The enumeration cap defaults
to the QUIVERLAB_CAP environment variable when set.

Numeric reports state how they were obtained (closed-form vs
enumeration) and which field orders were used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import linalg
from .extensions import _normalize_method, ext_min, ext_set, generic_ext
from .grassmannian import ext_ger, point_count, strata
from .homs import ext_dim, hom_dim
from .klr import (
    PASSES_NECESSARY_TEST,
    degree_report,
    is_support_pair,
    simplicity_necessary,
    socle_prediction,
)
from .order import leq
from .quiver import (
    PartitionError,
    QuiverError,
    dim_sub,
    kp_count,
    kp_enumerate,
    kp_format,
    kp_parse,
    kp_single,
    load_quiver,
    parse_dim_vector,
    positive_roots,
    standard_quiver,
    weight,
)
from .repetition import (
    RepetitionError,
    build_repetition,
    epsilon,
    v_lambda,
    w_gamma,
)
from .reps import RepError

__all__ = ["main"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_FALSE = 3
EXIT_ABSTAIN = 4
EXIT_CAP = 5


class CliParseError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiver", metavar="PATH", help="quiver spec file")
    common.add_argument(
        "--type",
        dest="diagram_type",
        choices=("A", "D", "E"),
        help="standard quiver of this diagram type (with --rank)",
    )
    common.add_argument("--rank", type=int, help="rank for --type")
    common.add_argument(
        "--field",
        dest="fields",
        type=int,
        action="append",
        metavar="Q",
        help="field order; repeatable (default: 2 and 3)",
    )
    common.add_argument(
        "--cap",
        type=int,
        help="enumeration cap (default: QUIVERLAB_CAP or %d)" % linalg.DEFAULT_CAP,
    )
    common.add_argument(
        "--method",
        choices=("u", "subrep"),
        default="u",
        help="extension-set method (default: u-enumeration)",
    )
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("json", "tsv"),
        default="json",
        help="output format",
    )
    common.add_argument(
        "--window",
        nargs=2,
        type=int,
        metavar=("LO", "HI"),
        help="level window override for the repetition quiver",
    )

    parser = argparse.ArgumentParser(
        prog="quiverlab",
        description="Exact computations for Dynkin-quiver representation classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help_)
        p.set_defaults(func=func)
        return p

    add("roots", _cmd_roots, "positive roots in enumeration order")

    p = add("kp", _cmd_kp, "all partitions of a dimension vector into roots")
    p.add_argument("gamma", help="dimension vector, e.g. 1,2,1")

    for name, func, help_ in (
        ("hom", _cmd_hom, "hom dimension between two classes"),
        ("ext1", _cmd_ext1, "extension dimension between two classes"),
        ("order", _cmd_order, "degeneration-order comparison x <= y"),
        ("ext-set", _cmd_ext_set, "all middle terms of extensions of mu by nu"),
        ("generic-ext", _cmd_generic_ext, "the generic extension mu*nu"),
        ("support-pair", _cmd_support_pair, "support-pair test"),
        ("simplicity", _cmd_simplicity, "necessary condition for a simple product"),
        ("socle", _cmd_socle, "socle prediction (may abstain)"),
        ("degree-report", _cmd_degree_report, "d/e/degree-bound table over middle terms"),
        ("epsilon", _cmd_epsilon, "pairing exponent for the split class"),
    ):
        p = add(name, func, help_)
        p.add_argument("pair", nargs="+", help="two classes")

    p = add("ext-min", _cmd_ext_min, "minimal realized (quotient, sub) pairs")
    p.add_argument("lam", help="middle-term class")
    p.add_argument("--alpha", required=True, help="quotient dimension vector")

    p = add("grass", _cmd_grass, "Grassmannian of subrepresentations")
    p.add_argument("what", choices=("count", "strata", "components"))
    p.add_argument("lam", help="ambient class")
    p.add_argument("--beta", required=True, help="subspace dimension vector")

    add("rep-quiver", _cmd_rep_quiver, "repetition quiver labeling")
    return parser


def _resolve_quiver(args):
    if args.quiver:
        try:
            return load_quiver(args.quiver)
        except OSError as exc:
            raise CliParseError(f"cannot read quiver file: {exc}") from None
    if args.diagram_type:
        if args.rank is None:
            raise CliParseError("--type needs --rank")
        return standard_quiver(args.diagram_type, args.rank)
    raise CliParseError("provide --quiver PATH or --type/--rank")


def _resolve_fields(args) -> tuple[int, ...]:
    fields = tuple(args.fields) if args.fields else (2, 3)
    for q in fields:
        if q not in linalg.SUPPORTED_FIELDS:
            raise CliParseError(
                f"field order {q} not supported (choose from {linalg.SUPPORTED_FIELDS})"
            )
    return fields


def _resolve_cap(args) -> int:
    if args.cap is not None:
        cap = args.cap
    else:
        text = os.environ.get("QUIVERLAB_CAP", str(linalg.DEFAULT_CAP))
        try:
            cap = int(text)
        except ValueError:
            raise CliParseError(f"QUIVERLAB_CAP={text!r} is not an integer") from None
    if cap <= 0:
        raise CliParseError("cap must be positive")
    return cap


def _split_pair(tokens: Sequence[str]) -> tuple[str, str]:
    if len(tokens) >= 2:
        cleaned = [t.strip(",").strip() for t in tokens]
        cleaned = [c for c in cleaned if c]
        if len(cleaned) != 2:
            raise CliParseError("expected exactly two classes")
        return cleaned[0], cleaned[1]
    text = tokens[0]
    if "[" not in text:
        raise CliParseError(
            "pass coordinate-syntax classes as two separate arguments"
        )
    pieces, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            pieces.append(text[start:k])
            start = k + 1
    pieces.append(text[start:])
    pieces = [p.strip() for p in pieces if p.strip()]
    if len(pieces) != 2:
        raise CliParseError(f"could not split {text!r} into two classes")
    return pieces[0], pieces[1]


def _parse_kp(table, text: str):
    try:
        return kp_parse(table, text)
    except PartitionError as exc:
        raise CliParseError(str(exc)) from exc


def _parse_dim(text: str, rank: int) -> tuple[int, ...]:
    try:
        return parse_dim_vector(text, rank)
    except PartitionError as exc:
        raise CliParseError(str(exc)) from exc


def _pair_args(args):
    quiver = _resolve_quiver(args)
    table = positive_roots(quiver)
    a_text, b_text = _split_pair(args.pair)
    return table, _parse_kp(table, a_text), _parse_kp(table, b_text)


def _emit(args, payload: dict) -> None:
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    lists = {k: v for k, v in payload.items() if isinstance(v, list)}
    for key, value in payload.items():
        if key in lists:
            continue
        print(f"{key}\t{value}")
    for key, rows in lists.items():
        if rows and isinstance(rows[0], dict):
            header = list(rows[0])
            print("\t".join([key + ":"] + header))
            for row in rows:
                print("\t".join([""] + [str(row[h]) for h in header]))
        else:
            print(f"{key}\t" + ",".join(str(x) for x in rows))


def _cmd_roots(args) -> int:
    quiver = _resolve_quiver(args)
    table = positive_roots(quiver)
    payload = {
        "quiver": repr(quiver),
        "word": list(table.word),
        "roots": [
            {
                "index": idx + 1,
                "root": ",".join(str(c) for c in root),
                "class": kp_format(kp_single(table, idx)),
            }
            for idx, root in enumerate(table.roots)
        ],
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_kp(args) -> int:
    quiver = _resolve_quiver(args)
    table = positive_roots(quiver)
    gamma = _parse_dim(args.gamma, quiver.rank)
    cap = _resolve_cap(args)
    # both the partitions and the parts of one (up to |gamma|) count as
    # states; the count stops past the cap, before any partition is built
    what = "Kostant partition enumeration"
    linalg.check_cap(weight(gamma), cap, what + " (|gamma| parts per partition)")
    linalg.check_cap(
        kp_count(table, gamma, cap + 1), cap, what + " (counting stopped past the cap)"
    )
    classes = kp_enumerate(table, gamma)
    _emit(
        args,
        {
            "gamma": ",".join(str(c) for c in gamma),
            "count": len(classes),
            "classes": [kp_format(k) for k in classes],
        },
    )
    return EXIT_OK


def _cmd_hom(args) -> int:
    _, x, y = _pair_args(args)
    _emit(
        args,
        {"x": kp_format(x), "y": kp_format(y), "hom": hom_dim(x, y), "method": "closed-form"},
    )
    return EXIT_OK


def _cmd_ext1(args) -> int:
    _, x, y = _pair_args(args)
    _emit(
        args,
        {"x": kp_format(x), "y": kp_format(y), "ext1": ext_dim(x, y), "method": "closed-form"},
    )
    return EXIT_OK


def _cmd_order(args) -> int:
    _, x, y = _pair_args(args)
    result = leq(x, y)
    _emit(args, {"x": kp_format(x), "y": kp_format(y), "leq": result})
    return EXIT_OK if result else EXIT_FALSE


def _cmd_ext_set(args) -> int:
    _, mu, nu = _pair_args(args)
    result = ext_set(
        mu, nu, fields=_resolve_fields(args), method=args.method, cap=_resolve_cap(args)
    )
    _emit(
        args,
        {
            "mu": kp_format(mu),
            "nu": kp_format(nu),
            "classes": sorted(kp_format(lam) for lam in result.classes),
            "method": result.method,
            "fields": list(result.fields),
            "stable": result.stable,
        },
    )
    return EXIT_OK


def _cmd_generic_ext(args) -> int:
    _, mu, nu = _pair_args(args)
    fields = _resolve_fields(args)
    gen = generic_ext(mu, nu, fields=fields, method=args.method, cap=_resolve_cap(args))
    _emit(
        args,
        {
            "mu": kp_format(mu),
            "nu": kp_format(nu),
            "generic_ext": kp_format(gen),
            "method": _normalize_method(args.method),
            "fields": list(fields),
        },
    )
    return EXIT_OK


def _cmd_ext_min(args) -> int:
    quiver = _resolve_quiver(args)
    table = positive_roots(quiver)
    lam = _parse_kp(table, args.lam)
    alpha = _parse_dim(args.alpha, quiver.rank)
    beta = dim_sub(lam.total, alpha)
    if any(c < 0 for c in beta):
        raise PartitionError("alpha exceeds dim lambda")
    fields = _resolve_fields(args)
    pairs = ext_min(lam, alpha, beta, fields=fields, cap=_resolve_cap(args))
    _emit(
        args,
        {
            "lambda": kp_format(lam),
            "alpha": ",".join(str(c) for c in alpha),
            "beta": ",".join(str(c) for c in beta),
            "pairs": [
                {"mu": kp_format(m), "nu": kp_format(n)}
                for m, n in sorted(pairs, key=lambda p: (p[0].parts, p[1].parts))
            ],
            "fields": list(fields),
            "method": "enumeration",
        },
    )
    return EXIT_OK


def _cmd_grass(args) -> int:
    quiver = _resolve_quiver(args)
    table = positive_roots(quiver)
    lam = _parse_kp(table, args.lam)
    beta = _parse_dim(args.beta, quiver.rank)
    fields = _resolve_fields(args)
    cap = _resolve_cap(args)
    if args.what == "count":
        _emit(
            args,
            {
                "lambda": kp_format(lam),
                "beta": ",".join(str(c) for c in beta),
                "counts": [
                    {"q": q, "count": point_count(lam, beta, q, cap)} for q in fields
                ],
                "method": "enumeration",
            },
        )
        return EXIT_OK
    if args.what == "strata":
        reports = [strata(lam, beta, q, cap).to_json_dict() for q in fields]
        _emit(args, reports[0] if len(reports) == 1 else {"reports": reports})
        return EXIT_OK
    alpha = dim_sub(lam.total, beta)
    if any(c < 0 for c in alpha):
        raise PartitionError("beta exceeds dim lambda")
    components = ext_ger(lam, alpha, beta, fields=fields, cap=cap)
    _emit(
        args,
        {
            "lambda": kp_format(lam),
            "alpha": ",".join(str(c) for c in alpha),
            "beta": ",".join(str(c) for c in beta),
            "components": [
                {"mu": kp_format(m), "nu": kp_format(n)}
                for m, n in sorted(components, key=lambda p: (p[0].parts, p[1].parts))
            ],
            "fields": list(fields),
            "method": "enumeration",
        },
    )
    return EXIT_OK


def _cmd_support_pair(args) -> int:
    _, mu, nu = _pair_args(args)
    result = is_support_pair(mu, nu, fields=_resolve_fields(args), cap=_resolve_cap(args))
    _emit(
        args,
        {
            "mu": kp_format(mu),
            "nu": kp_format(nu),
            "is_support_pair": result.ok,
            "witness": kp_format(result.witness) if result.witness else None,
        },
    )
    return EXIT_OK if result.ok else EXIT_FALSE


def _cmd_simplicity(args) -> int:
    _, mu, nu = _pair_args(args)
    verdict = simplicity_necessary(
        mu, nu, fields=_resolve_fields(args), cap=_resolve_cap(args)
    )
    _emit(args, verdict.to_json_dict())
    return EXIT_OK if verdict.verdict == PASSES_NECESSARY_TEST else EXIT_FALSE


def _cmd_socle(args) -> int:
    _, mu, nu = _pair_args(args)
    prediction = socle_prediction(
        mu, nu, fields=_resolve_fields(args), cap=_resolve_cap(args)
    )
    _emit(args, prediction.to_json_dict())
    return EXIT_ABSTAIN if prediction.abstained else EXIT_OK


def _cmd_degree_report(args) -> int:
    _, mu, nu = _pair_args(args)
    report = degree_report(mu, nu, fields=_resolve_fields(args), cap=_resolve_cap(args))
    payload = report.to_json_dict()
    payload["fields"] = list(_resolve_fields(args))
    _emit(args, payload)
    return EXIT_OK


def _cmd_epsilon(args) -> int:
    table, mu, nu = _pair_args(args)
    quiver = table.quiver
    window = tuple(args.window) if args.window else None
    rq = build_repetition(quiver, window)
    value = epsilon(
        rq,
        v_lambda(rq, mu),
        w_gamma(rq, mu.total),
        v_lambda(rq, nu),
        w_gamma(rq, nu.total),
    )
    _emit(args, {"mu": kp_format(mu), "nu": kp_format(nu), "epsilon": value})
    return EXIT_OK


def _cmd_rep_quiver(args) -> int:
    quiver = _resolve_quiver(args)
    window = tuple(args.window) if args.window else None
    rq = build_repetition(quiver, window)
    _emit(
        args,
        {
            "window": list(rq.window),
            "xi": list(rq.xi),
            "vertices": [
                {
                    "i": i,
                    "p": p,
                    "root": ",".join(str(c) for c in rq.phi[(i, p)][0]),
                    "m": rq.phi[(i, p)][1],
                }
                for i, p in rq.vertices
            ],
        },
    )
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except linalg.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (PartitionError, QuiverError, RepError, RepetitionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
