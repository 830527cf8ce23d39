"""Command-line front end.

One subcommand per library operation.  The quiver comes either from a
spec file (``--quiver path``) or from ``--type``/``--rank``; classes
are written in segment syntax (``"[1,2]+[2,3]"``, linear type A) or
coordinate syntax (``"1,1,0 + 0,1,1"``).

A pair of classes may be given as two arguments (a leading comma on the
second is tolerated) or as one argument split at a top-level comma,
e.g. ``hom "[2,3]","[1,2]"``; the one-argument form needs the bracket
syntax.

Each subcommand takes only the options it reads: ``--field`` and
``--cap`` go to the commands that enumerate (``kp`` takes ``--cap``
alone), ``--method`` to ``ext-set`` and ``generic-ext``, ``--window``
to ``epsilon`` and ``rep-quiver``.  Any other option is a usage error.

Exit codes: 0 = success / true / passes; 3 = false / cannot_be_simple;
4 = abstain; 2 = parse or usage error; 5 = enumeration cap exceeded;
1 = domain error (violated precondition).  The enumeration cap defaults
to the QUIVERLAB_CAP environment variable when set.

This module owns the output schema: every JSON payload and TSV table
is built here from the library's result objects.  Numeric reports state
how they were obtained (closed-form vs enumeration) and which field
orders were used.

Only ``quiver`` and ``linalg`` load with this module, since every
subcommand resolves a quiver and parses classes.  Each ``_cmd_*``
handler imports the library modules it runs, so a one-shot query loads
and compiles no more of the package than it uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import linalg
from .quiver import (
    PartitionError,
    dim_sub,
    kp_enumerate,
    kp_format,
    kp_parse,
    kp_single,
    load_quiver,
    parse_dim_vector,
    positive_root_count,
    positive_roots,
    standard_quiver,
    weight,
)

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
    parser = argparse.ArgumentParser(
        prog="quiverlab",
        description="Exact computations for Dynkin-quiver representation classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, *options: str) -> argparse.ArgumentParser:
        """A subcommand with the quiver and format options plus ``options``."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--quiver", metavar="PATH", help="quiver spec file")
        p.add_argument(
            "--type",
            dest="diagram_type",
            choices=("A", "D", "E"),
            help="standard quiver of this diagram type (with --rank)",
        )
        p.add_argument("--rank", type=int, help="rank for --type")
        if "field" in options:
            p.add_argument(
                "--field",
                dest="fields",
                type=int,
                action="append",
                metavar="Q",
                help="field order; repeatable (default: 2 and 3)",
            )
        if "cap" in options:
            p.add_argument(
                "--cap",
                type=int,
                help="enumeration cap (default: QUIVERLAB_CAP or %d)" % linalg.DEFAULT_CAP,
            )
        if "method" in options:
            p.add_argument(
                "--method",
                choices=("u", "subrep"),
                default="u",
                help="extension-set method (default: u-enumeration)",
            )
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("json", "tsv"),
            default="json",
            help="output format",
        )
        if "window" in options:
            p.add_argument(
                "--window",
                nargs=2,
                type=int,
                metavar=("LO", "HI"),
                help="level window override for the repetition quiver",
            )
        return p

    enumerating = ("field", "cap")
    add("roots", _cmd_roots, "positive roots in enumeration order")
    p = add("kp", _cmd_kp, "all partitions of a dimension vector into roots", "cap")
    p.add_argument("gamma", help="dimension vector, e.g. 1,2,1")

    for name, func, help_, options in (
        ("hom", _cmd_hom, "hom dimension between two classes", ()),
        ("ext1", _cmd_ext1, "extension dimension between two classes", ()),
        ("order", _cmd_order, "degeneration-order comparison x <= y", ()),
        ("ext-set", _cmd_ext_set, "all middle terms of extensions of mu by nu",
         (*enumerating, "method")),
        ("generic-ext", _cmd_generic_ext, "the generic extension mu*nu",
         (*enumerating, "method")),
        ("support-pair", _cmd_support_pair, "support-pair test", enumerating),
        ("simplicity", _cmd_simplicity, "necessary condition for a simple product",
         enumerating),
        ("socle", _cmd_socle, "socle prediction (may abstain)", enumerating),
        ("degree-report", _cmd_degree_report, "d, e and 2e + d per middle term",
         enumerating),
        ("epsilon", _cmd_epsilon, "pairing exponent for the split class", ("window",)),
    ):
        p = add(name, func, help_, *options)
        p.add_argument("pair", nargs="+", help="two classes")

    p = add("ext-min", _cmd_ext_min, "minimal realized (quotient, sub) pairs", *enumerating)
    p.add_argument("lam", help="middle-term class")
    p.add_argument("--alpha", required=True, help="quotient dimension vector")

    p = add("grass", _cmd_grass, "Grassmannian of subrepresentations", *enumerating)
    p.add_argument("what", choices=("count", "strata", "components"))
    p.add_argument("lam", help="ambient class")
    p.add_argument("--beta", required=True, help="subspace dimension vector")

    add("rep-quiver", _cmd_rep_quiver, "repetition quiver labeling", "window")
    return parser


def _resolve_quiver(args):
    if args.quiver:
        try:
            quiver = load_quiver(args.quiver)
        except OSError as exc:
            raise CliParseError(f"cannot read quiver file: {exc}") from None
        _check_root_table(quiver.diagram_type, quiver.rank, args)
        return quiver
    if args.diagram_type:
        if args.rank is None:
            raise CliParseError("--type needs --rank")
        _check_root_table(args.diagram_type, args.rank, args)
        return standard_quiver(args.diagram_type, args.rank)
    raise CliParseError("provide --quiver PATH or --type/--rank")


def _check_root_table(diagram_type: str, rank: int, args) -> None:
    """Refuse, before the quiver is built, a root table of more entries
    than the cap: N positive roots of ``rank`` coordinates, which the
    adapted walk and the first closed forms cost N x rank to build.  A
    cap below the default bounds the enumeration that follows, not the
    table, so a table within the default always builds.  E has at most
    120 roots."""
    if diagram_type == "E":
        return
    needed = positive_root_count(diagram_type, rank) * rank
    if needed > linalg.DEFAULT_CAP:
        linalg.check_cap(needed, _resolve_cap(args), "root table (positive roots x rank)")


def _resolve_fields(args) -> tuple[int, ...]:
    fields = tuple(args.fields) if args.fields else linalg.DEFAULT_FIELDS
    for q in fields:
        if q not in linalg.SUPPORTED_FIELDS:
            raise CliParseError(
                f"field order {q} not supported (choose from {linalg.SUPPORTED_FIELDS})"
            )
    return fields


def _resolve_cap(args) -> int:
    # a command without --cap reads the environment or the default
    cap = getattr(args, "cap", None)
    if cap is None:
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


def _vector(vec: Sequence[int]) -> str:
    return ",".join(str(c) for c in vec)


def _pairs(pairs) -> list[dict]:
    return [
        {"mu": kp_format(m), "nu": kp_format(n)}
        for m, n in sorted(pairs, key=lambda p: (p[0].parts, p[1].parts))
    ]


def _cell(value) -> str:
    """A TSV cell: a string as it is, any other value spelled as in JSON."""
    return value if isinstance(value, str) else json.dumps(value)


def _emit(fmt: str, payload: dict) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    # a payload of several reports prints each as its own block
    for report in payload.get("reports", [payload]):
        lists = {k: v for k, v in report.items() if isinstance(v, list)}
        for key, value in report.items():
            if key not in lists:
                print(f"{key}\t{_cell(value)}")
        for key, rows in lists.items():
            if not rows or isinstance(rows[0], dict):
                header = list(rows[0]) if rows else []
                print("\t".join([key + ":"] + header))
                for row in rows:
                    print("\t".join([""] + [_cell(row[h]) for h in header]))
            elif isinstance(rows[0], str):
                # one cell per string: class strings hold commas themselves
                print("\t".join([key] + rows))
            else:
                print(f"{key}\t{_vector(rows)}")


def _cmd_roots(args, table) -> tuple[dict, int]:
    return {
        "quiver": repr(table.quiver),
        "word": list(table.word),
        "roots": [
            {
                "index": idx + 1,
                "root": _vector(root),
                "class": kp_format(kp_single(table, idx)),
            }
            for idx, root in enumerate(table.roots)
        ],
    }, EXIT_OK


def _cmd_kp(args, table) -> tuple[dict, int]:
    from .order import _check_kp_cap

    gamma = _parse_dim(args.gamma, table.quiver.rank)
    cap = _resolve_cap(args)
    # both the partitions and the parts of one (up to |gamma|) count as
    # states; the count stops past the cap, before any partition is built
    what = "Kostant partition enumeration (|gamma| parts per partition)"
    linalg.check_cap(weight(gamma), cap, what)
    _check_kp_cap(table, gamma, cap)
    classes = kp_enumerate(table, gamma)
    return {
        "gamma": _vector(gamma),
        "count": len(classes),
        "classes": [kp_format(k) for k in classes],
    }, EXIT_OK


def _cmd_hom(args, table, x, y) -> tuple[dict, int]:
    from .homs import hom_dim

    return {
        "x": kp_format(x), "y": kp_format(y), "hom": hom_dim(x, y), "method": "closed-form"
    }, EXIT_OK


def _cmd_ext1(args, table, x, y) -> tuple[dict, int]:
    from .homs import ext_dim

    return {
        "x": kp_format(x), "y": kp_format(y), "ext1": ext_dim(x, y), "method": "closed-form"
    }, EXIT_OK


def _cmd_order(args, table, x, y) -> tuple[dict, int]:
    from .order import leq

    result = leq(x, y)
    code = EXIT_OK if result else EXIT_FALSE
    return {"x": kp_format(x), "y": kp_format(y), "leq": result}, code


def _cmd_ext_set(args, table, mu, nu) -> tuple[dict, int]:
    from .extensions import ext_set

    fields, cap = _resolve_fields(args), _resolve_cap(args)
    result = ext_set(mu, nu, fields=fields, method=args.method, cap=cap)
    return {
        "mu": kp_format(mu),
        "nu": kp_format(nu),
        "classes": sorted(kp_format(lam) for lam in result.classes),
        "method": result.method,
        "fields": list(result.fields),
        "stable": result.stable,
    }, EXIT_OK


def _cmd_generic_ext(args, table, mu, nu) -> tuple[dict, int]:
    from .extensions import _normalize_method, generic_ext

    fields, cap = _resolve_fields(args), _resolve_cap(args)
    gen = generic_ext(mu, nu, fields=fields, method=args.method, cap=cap)
    return {
        "mu": kp_format(mu),
        "nu": kp_format(nu),
        "generic_ext": kp_format(gen),
        "method": _normalize_method(args.method),
        "fields": list(fields),
    }, EXIT_OK


def _cmd_ext_min(args, table) -> tuple[dict, int]:
    from .extensions import ext_min

    lam = _parse_kp(table, args.lam)
    alpha = _parse_dim(args.alpha, table.quiver.rank)
    beta = dim_sub(lam.total, alpha)
    fields, cap = _resolve_fields(args), _resolve_cap(args)
    return {
        "lambda": kp_format(lam),
        "alpha": _vector(alpha),
        "beta": _vector(beta),
        "pairs": _pairs(ext_min(lam, alpha, beta, fields=fields, cap=cap)),
        "fields": list(fields),
        "method": "enumeration",
    }, EXIT_OK


def _cmd_grass(args, table) -> tuple[dict, int]:
    from .grassmannian import ext_ger, point_count, strata

    lam = _parse_kp(table, args.lam)
    beta = _parse_dim(args.beta, table.quiver.rank)
    fields, cap = _resolve_fields(args), _resolve_cap(args)
    if args.what == "count":
        return {
            "lambda": kp_format(lam),
            "beta": _vector(beta),
            "counts": [{"q": q, "count": point_count(lam, beta, q, cap)} for q in fields],
            "method": "enumeration",
        }, EXIT_OK
    if args.what == "strata":
        reports = [
            {
                "lambda": kp_format(lam),
                "beta": _vector(beta),
                "q": report.q,
                "strata": [
                    {
                        "mu": kp_format(e.mu),
                        "nu": kp_format(e.nu),
                        "count": e.count,
                        "dim": e.dim,
                    }
                    for e in report.entries
                ],
                "total": report.total,
            }
            for report in (strata(lam, beta, q, cap) for q in fields)
        ]
        return (reports[0] if len(reports) == 1 else {"reports": reports}), EXIT_OK
    alpha = dim_sub(lam.total, beta)
    return {
        "lambda": kp_format(lam),
        "alpha": _vector(alpha),
        "beta": _vector(beta),
        "components": _pairs(ext_ger(lam, alpha, beta, fields=fields, cap=cap)),
        "fields": list(fields),
        "method": "enumeration",
    }, EXIT_OK


def _cmd_support_pair(args, table, mu, nu) -> tuple[dict, int]:
    from .klr import is_support_pair

    result = is_support_pair(mu, nu, fields=_resolve_fields(args), cap=_resolve_cap(args))
    return {
        "mu": kp_format(mu),
        "nu": kp_format(nu),
        "is_support_pair": result.ok,
        "witness": kp_format(result.witness) if result.witness is not None else None,
    }, (EXIT_OK if result.ok else EXIT_FALSE)


def _cmd_simplicity(args, table, mu, nu) -> tuple[dict, int]:
    from .klr import PASSES_NECESSARY_TEST, simplicity_necessary

    verdict = simplicity_necessary(
        mu, nu, fields=_resolve_fields(args), cap=_resolve_cap(args)
    )
    return {
        "mu": kp_format(mu),
        "nu": kp_format(nu),
        "verdict": verdict.verdict,
        "witness": kp_format(verdict.witness) if verdict.witness is not None else None,
        "inequalities": [
            {
                "lambda": kp_format(r.lam),
                "hom_nu_split": r.hom_nu_split,
                "hom_nu_lambda": r.hom_nu_lam,
                "hom_mu_split": r.hom_mu_split,
                "hom_mu_lambda": r.hom_mu_lam,
            }
            for r in verdict.rows
        ],
    }, (EXIT_OK if verdict.verdict == PASSES_NECESSARY_TEST else EXIT_FALSE)


def _cmd_socle(args, table, mu, nu) -> tuple[dict, int]:
    from .klr import socle_prediction

    prediction = socle_prediction(
        mu, nu, fields=_resolve_fields(args), cap=_resolve_cap(args)
    )
    return {
        "mu": kp_format(mu),
        "nu": kp_format(nu),
        "generic_product": kp_format(prediction.generic_product),
        "predicted": kp_format(prediction.predicted) if prediction.predicted is not None else None,
        "abstained": prediction.abstained,
    }, (EXIT_ABSTAIN if prediction.abstained else EXIT_OK)


def _cmd_degree_report(args, table, mu, nu) -> tuple[dict, int]:
    from .klr import degree_report

    fields = _resolve_fields(args)
    report = degree_report(mu, nu, fields=fields, cap=_resolve_cap(args))
    return {
        "mu": kp_format(mu),
        "nu": kp_format(nu),
        "rows": [
            {
                "lambda": kp_format(r.lam),
                "d": r.d,
                "e": r.e,
                "bound": r.bound,
                "generic_pair": r.is_generic_pair,
                "ext_ger": r.in_ext_ger,
                "epsilon": r.eps,
            }
            for r in report.rows
        ],
        "fields": list(fields),
    }, EXIT_OK


def _cmd_epsilon(args, table, mu, nu) -> tuple[dict, int]:
    from .repetition import build_repetition, epsilon, v_lambda, w_gamma

    rq = build_repetition(table.quiver, tuple(args.window) if args.window else None)
    value = epsilon(
        rq,
        v_lambda(rq, mu),
        w_gamma(rq, mu.total),
        v_lambda(rq, nu),
        w_gamma(rq, nu.total),
    )
    return {"mu": kp_format(mu), "nu": kp_format(nu), "epsilon": value}, EXIT_OK


def _cmd_rep_quiver(args, table) -> tuple[dict, int]:
    from .repetition import build_repetition

    rq = build_repetition(table.quiver, tuple(args.window) if args.window else None)
    return {
        "window": list(rq.window),
        "xi": list(rq.xi),
        "vertices": [
            {"i": i, "p": p, "root": _vector(rq.phi[(i, p)][0]), "m": rq.phi[(i, p)][1]}
            for i, p in rq.vertices
        ],
    }, EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        table = positive_roots(_resolve_quiver(args))
        # a pair command gets its two classes, parsed in order
        classes = (
            [_parse_kp(table, text) for text in _split_pair(args.pair)]
            if "pair" in args
            else []
        )
        payload, code = args.func(args, table, *classes)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except linalg.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:  # every library domain error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _emit(args.fmt, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
