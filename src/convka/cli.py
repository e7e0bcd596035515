"""pathtool: weighted path problems and batch axiom checks.

Exit codes: 0 success / clean report, 1 oracle disagreement, 2 parse or
usage error, 3 capability or Moebius-condition error.  A reader that closes
stdout early (``pathtool star ... | head``) ends the run quietly with exit 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import lab, models
from .catoid import MoebiusViolation
from .convolution import (
    from_pairs,
    functions_equal,
    star_dual,
    star_recursive,
    star_unfolded,
)
from .pathtool import (
    ParseError,
    edge_weight_matrix,
    floyd_warshall,
    homset_matrix,
    matrix_star,
    parse_graph,
    parse_poset,
    parse_weight_token,  # unused here; bench/tracing.py wraps each cli.parse_* by name
    parse_weights,
    validate_weight,
    warshall_closure,
)
from .report import XFAIL
from .values import (
    CapabilityError,
    make_boolean,
    make_max_plus,
    make_min_plus,
    make_nat_inf_conway,
)

MODELS = ("words", "shuffle", "poset", "pairs", "graph", "guarded")
ALGEBRAS = {
    "boolean": make_boolean,
    "minplus": make_min_plus,
    "maxplus": make_max_plus,
    "natinf": make_nat_inf_conway,
}
STAR_MODES = ("recursive", "dual", "unfolded", "matrix")


def _err(msg: str) -> None:
    print(f"pathtool: {msg}", file=sys.stderr)


def _decode_element(model: str, tok: str):
    """Weight-file element tokens of the words, shuffle, guarded and pairs models."""
    if model in ("words", "shuffle"):
        return "" if tok == "eps" else tok
    if model == "guarded":
        return tuple(tok.split("."))
    parts = tok.split(",")
    if len(parts) != 2:
        raise ParseError(f"element {tok!r}: expected 'a,b'")
    return (parts[0], parts[1])


def _build_model_and_weights(args, K):
    """Returns (catoid, weight function, graph); graphs get K[C] weights
    (identities -> 1).  A plain matrix star reads only the edge weights, so
    there the path catoid and its weights are not built and come back None."""
    with open(args.weights) as fh:
        text = fh.read()
    max_len = args.max_length

    if args.model == "graph":
        graph = parse_graph(text)
        for name, _, _, w in graph.edges:
            validate_weight(K, w)
        if args.star == "matrix" and not args.check_oracles:
            return None, None, graph
        bound = max_len
        if graph.is_acyclic():
            bound = max(bound, graph.longest_path_len())
        C = models.path_catoid(graph, bound)
        table = {}
        for e in C.identities():
            table[e] = K.one
        for name, src, dst, w in graph.edges:
            table[(src, (name,))] = w
        f = from_pairs(C, K, table)
        return C, f, graph

    if args.model == "poset":
        spec, weights = parse_poset(text)
        C = models.interval_catoid(spec)
        table = {}
        for (a, b), w in weights.items():
            if (a, b) not in C:
                raise ParseError(f"interval {a},{b} not in the interval set")
            table[(a, b)] = validate_weight(K, w)
        f = from_pairs(C, K, table)
        return C, f, None

    weights = parse_weights(text)
    if args.model in ("words", "shuffle"):
        letters = sorted({ch for tok in weights if tok != "eps" for ch in tok})
        if not letters:
            raise ParseError("cannot infer an alphabet from the weight file")
        ctor = models.free_monoid if args.model == "words" else models.shuffle_catoid
        C = ctor(letters, max_len)
    elif args.model == "guarded":
        tests, actions = set(), set()
        for tok in weights:
            parts = tok.split(".")
            tests.update(parts[0::2])
            actions.update(parts[1::2])
        if not tests:
            raise ParseError("cannot infer tests from the weight file")
        if not actions:
            actions = {"act"}
        C = models.guarded_string_catoid(tests, actions, max_len)
    else:  # pairs; argparse's choices admit no other model
        points = {p for tok in weights for p in tok.split(",")}
        if not points:
            raise ParseError("cannot infer a point set from the weight file")
        C = models.pair_groupoid(points)

    table = {}
    for tok, w in weights.items():
        x = _decode_element(args.model, tok)
        if x not in C:
            raise ParseError(f"element {tok!r} is outside the model universe")
        table[x] = validate_weight(K, w)
    return C, from_pairs(C, K, table), None


def _matrix_rows(labels, M):
    for a, row in zip(labels, M):
        for b, w in zip(labels, row):
            yield f"{a}->{b}", w


def cmd_star(args) -> int:
    if args.star == "matrix" and args.model != "graph":
        _err("--star matrix needs --model graph")
        return 2
    K = ALGEBRAS[args.algebra]()
    try:
        C, f, graph = _build_model_and_weights(args, K)
    except (ParseError, OSError, ValueError) as exc:
        _err(str(exc))
        return 2

    forms = {"recursive": star_recursive, "dual": star_dual, "unfolded": star_unfolded}
    try:
        if args.star == "matrix":
            labels, E = edge_weight_matrix(graph, K)
            fs, M = None, matrix_star(K, E)
            rows = list(_matrix_rows(labels, M))
        else:
            fs, M = forms[args.star](f), None
            rows = [(C.format_element(x), fs(x)) for x in C.elements()]

        if args.check_oracles:
            code = _cross_check(args, K, C, f, graph, forms, fs, M)
            if code:
                return code
    except (MoebiusViolation, CapabilityError) as exc:
        _err(str(exc))
        return 3

    for label, w in rows:
        print(f"{label}\t{w}")
    return 0


def _cross_check(args, K, C, f, graph, forms, fs, M) -> int:
    """Recompute the star every applicable way; nonzero on any disagreement.

    ``fs`` is the printed star function (None for ``--star matrix``) and
    ``M`` the printed matrix star (None otherwise); neither is computed twice.
    """
    stars = {}
    if fs is not None:
        stars = {name: fs if name == args.star else form(f) for name, form in forms.items()}
        base = stars["recursive"]
        for name, other in stars.items():
            if not functions_equal(base, other):
                _err(f"oracle disagreement: recursive vs {name}")
                return 1
    if args.model != "graph":
        return 0
    _, E = edge_weight_matrix(graph, K)
    if M is None:
        M = matrix_star(K, E)
    if not graph.is_acyclic():
        _err("note: homset comparison skipped, graph has a cycle")
    else:
        # aggregation over homsets maps K[C] to matrices, convolution to matrix
        # product and so the star to the matrix star of f's own aggregation,
        # identity weights included; that aggregation is I + E, whose star is
        # the printed E* wherever 1* = 1
        agg = homset_matrix(C, stars["recursive"] if stars else star_recursive(f), K)
        if agg != matrix_star(K, homset_matrix(C, f, K)) or (
                K.star(K.one) == K.one and agg != M):
            _err("oracle disagreement: homset aggregation vs matrix star")
            return 1
    if K.name == "boolean" and warshall_closure(E) != M:
        _err("oracle disagreement: matrix star vs Warshall closure")
        return 1
    if K.name == "minplus" and floyd_warshall(E) != M:
        _err("oracle disagreement: matrix star vs Floyd-Warshall")
        return 1
    return 0


def cmd_check(args) -> int:
    try:
        rep = lab.run_campaign(args.suite, args.seed, args.samples)
    except ValueError as exc:
        _err(str(exc))
        return 2
    print(rep.to_text())
    fails = len(rep.failures)
    xfails = sum(1 for e in rep.entries if e.status == XFAIL)
    print(f"# {len(rep.entries)} laws, {fails} failing, {xfails} expected failures",
          file=sys.stderr)
    return 0 if rep.clean else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pathtool",
        description="weighted path problems and axiom-check campaigns "
                    "over convolution algebras")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("star", help="compute a star over a model and algebra")
    ps.add_argument("--model", choices=MODELS, required=True)
    ps.add_argument("--algebra", choices=sorted(ALGEBRAS), required=True)
    ps.add_argument("--max-length", type=int, default=4)
    ps.add_argument("--star", choices=STAR_MODES, default="recursive")
    ps.add_argument("--weights", required=True, help="model/weight input file")
    ps.add_argument("--check-oracles", action="store_true",
                    help="recompute with all applicable star forms and compare")
    ps.set_defaults(fn=cmd_star)

    pc = sub.add_parser("check", help="run an axiom-check campaign")
    pc.add_argument("--suite", choices=lab.SUITES, default="all")
    pc.add_argument("--seed", type=int, default=7)
    pc.add_argument("--samples", type=int, default=25)
    pc.set_defaults(fn=cmd_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout was closed by its reader; point it at devnull so the
        # interpreter's final flush of the buffered rest cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
