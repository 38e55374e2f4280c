"""Command-line front end.

Exit codes: 0 positive result, 1 certified negative, 2 input error,
3 resource cap exceeded, 4 inconclusive. Reports are reproducible byte for
byte, and `--format json` mirrors the text report structure one to one.
Options may also come from a `key=value` config file: its values become the
subcommand's defaults, typed and checked like the flags, and flags win.
A config file that sets a key twice, a table file that names an entry twice
and a multiset-family file with a degree that is not a positive even integer
are input errors. A reader that closes stdout early does not change the exit
code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import parse_free_algebra
from .errors import ContractError, SearchSpaceExceeded, SrChromaError
from .families import SPAN_CONDITION_KINDS, FamilySpec, build_complex, family_choices, parse_family
from .graph import Graph, chromatic_number, parse_graph, serialize_graph
from .realize import (
    DEFAULT_FAMILY,
    check_realizable,
    decompose_s,
    load_family_file,
    multiset_decomposable,
    sufficiency_partition,
)
from .search import DEFAULT_NODE_CAP, search_action
from .span import span_chromatic_number
from .steenrod import (
    adem_relation,
    check_table,
    full_adem_relation_set,
    necessary_condition,
    parse_table,
    relations_and_bound,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INCONCLUSIVE = 4

CONFIG_KEYS = (
    "p",
    "family",
    "vector",
    "graph",
    "degree_bound",
    "relations",
    "multiset_family",
    "format",
)
# what a command hands back: its JSON report, its text lines and its exit code
Report = tuple[dict, list[str], int]


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ContractError(f"cannot read {what} file: {exc}") from None


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path, "config").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in CONFIG_KEYS:
            raise ContractError(f"config line {lineno}: expected `key=value` with a known key")
        if key in cfg:
            raise ContractError(f"config line {lineno}: duplicate key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _emit(report: dict, lines: list[str], fmt: str) -> None:
    try:
        if fmt == "json":
            print(json.dumps(report, sort_keys=True))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone. Point stdout at /dev/null so that neither this
        # write nor the interpreter's flush at exit replaces the exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ContractError(f"bad {what} {text!r}") from None


def _family_from(args: argparse.Namespace) -> FamilySpec:
    if args.family is None or args.vector is None:
        raise ContractError("--family and --vector are required (or config keys family/vector)")
    return parse_family(args.family, args.vector, args.p)


def _graph_from(args: argparse.Namespace) -> Graph:
    if args.graph is None:
        raise ContractError("a graph file is required")
    return parse_graph(_read_text(args.graph, "graph"))


def _ambient_and_p(args: argparse.Namespace):
    if args.free is not None:
        if args.p is None:
            raise ContractError("--p is required with --free")
        return parse_free_algebra(args.free), args.p
    spec = _family_from(args)
    p = spec.p if spec.p is not None else args.p
    if p is None:
        raise ContractError("--p is required for the general A family")
    return build_complex(spec, _graph_from(args)), p


def _bound_and_relations(args: argparse.Namespace, ambient, p: int):
    rels = None
    if args.relations not in ("default", "adem-full"):
        rels = []
        for chunk in args.relations.split(","):
            try:
                a, b = (int(x) for x in chunk.split(":"))
            except ValueError:
                raise ContractError(f"bad relation spec {chunk!r}, expected a:b") from None
            rels.append(adem_relation(a, b, p))
    relations, bound = relations_and_bound(p, rels, args.degree_bound)
    if args.relations == "adem-full":
        relations = full_adem_relation_set(ambient, p, bound)
    return bound, relations


def _multiset_family_from(args: argparse.Namespace):
    if args.multiset_family is None:
        return None
    return load_family_file(_read_text(args.multiset_family, "multiset family"))


def _span_report(g: Graph, p: int) -> tuple[dict, list[str]]:
    value, witness = span_chromatic_number(g, p)
    lines = [f"s_{p}chi = {value}"] + witness.serialize().rstrip("\n").splitlines()
    report = {
        "p": p,
        "value": value,
        "witness": {v: list(vec.coords) for v, vec in sorted(witness.assignment.items())},
    }
    return report, lines


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_chromatic(args: argparse.Namespace) -> Report:
    g = _graph_from(args)
    chi, witness = chromatic_number(g)
    lines = [f"chi = {chi}"]
    report: dict = {"chi": chi, "coloring": dict(sorted(witness.assignment.items()))}
    if args.span is not None:
        report["span"], span_lines = _span_report(g, args.span)
        lines += span_lines
    return report, lines, EXIT_OK


def _cmd_span_chromatic(args: argparse.Namespace) -> Report:
    g = _graph_from(args)
    if args.p is None:
        raise ContractError("--p is required")
    report, lines = _span_report(g, args.p)
    return report, lines, EXIT_OK


def _cmd_build_complex(args: argparse.Namespace) -> Report:
    spec = _family_from(args)
    g = _graph_from(args)
    k = build_complex(spec, g)
    lines = [
        f"family = {spec.kind}",
        f"p = {spec.p if spec.p is not None else '-'}",
        f"vector = {','.join(map(str, spec.vector))}",
    ]
    lines += k.serialize_header()
    lines.append("graph:")
    lines += serialize_graph(g).rstrip("\n").splitlines()
    report = {
        "family": spec.kind,
        "p": spec.p,
        "vector": list(spec.vector),
        "blocks": [[s, d] for s, d in k.blocks],
        "graph_degree": k.graph_degree,
        "generators": {lbl: k.gen_degrees[i] for i, lbl in enumerate(k.gen_labels)},
        "graph": serialize_graph(g),
    }
    return report, lines, EXIT_OK


def _cmd_action_search(args: argparse.Namespace) -> Report:
    ambient, p = _ambient_and_p(args)
    bound, relations = _bound_and_relations(args, ambient, p)
    outcome = search_action(ambient, p, bound, relations, args.cap)
    report = {
        "status": "found" if outcome.found else "exhausted",
        "degree_bound": outcome.degree_bound,
        "relations": list(outcome.relation_names),
        "nodes": outcome.nodes,
    }
    if not outcome.found:
        return report, [outcome.relativity()], EXIT_NEGATIVE
    table = outcome.table
    report["table"] = {f"P^{k}({lbl})": str(table.entries[lbl, k]) for lbl, k in table.stored_keys()}
    return report, ["found"] + table.serialize().rstrip("\n").splitlines(), EXIT_OK


def _cmd_action_check(args: argparse.Namespace) -> Report:
    ambient, p = _ambient_and_p(args)
    if args.table is None:
        raise ContractError("--table is required")
    table = parse_table(_read_text(args.table, "table"), ambient, p)
    bound, relations = _bound_and_relations(args, ambient, p)
    reports = check_table(table, relations, bound)
    lines = []
    for rep in reports:
        lines += rep.to_text().splitlines()
    report = {"checks": [rep.to_json_dict() for rep in reports]}
    return report, lines, EXIT_OK if all(rep.ok for rep in reports) else EXIT_NEGATIVE


def _cmd_necessary(args: argparse.Namespace) -> Report:
    spec = _family_from(args)
    g = _graph_from(args)
    outcome = necessary_condition(spec, g)
    lines = [outcome.describe()]
    report = {
        "passed": outcome.passed,
        "p": outcome.p,
        "bound": outcome.bound,
        "span_chromatic": outcome.span_value,
    }
    return report, lines, EXIT_INCONCLUSIVE if outcome.passed else EXIT_NEGATIVE


def _cmd_partition(args: argparse.Namespace) -> Report:
    spec = _family_from(args)
    g = _graph_from(args)
    k = build_complex(spec, g)
    part = sufficiency_partition(k, _multiset_family_from(args))
    if part is None:
        chi, _ = chromatic_number(g)
        lines = [f"no partition construction applies (chi = {chi})"]
        return {"status": "unavailable", "chi": chi}, lines, EXIT_INCONCLUSIVE
    lines = part.serialize(k).rstrip("\n").splitlines()
    lines.append("verified: True")
    report = {
        "partition": [sorted(b, key=k.label_index.get) for b in part.blocks],
        "verified": True,
    }
    return report, lines, EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> Report:
    if args.vector is None:
        raise ContractError("--vector is required")
    s = _int_list(args.vector, "vector")
    c = args.c
    if c is None:
        c, _ = chromatic_number(_graph_from(args))
    dec = decompose_s(s, c)
    if dec is None:
        lines = [f"no decomposition of ({args.vector}) for c = {c} exists"]
        return {"status": "none", "c": c, "s": list(s)}, lines, EXIT_NEGATIVE
    sp, sd = dec
    lines = [f"s'  = {','.join(map(str, sp))}", f"s'' = {','.join(map(str, sd))}"]
    report = {"status": "found", "c": c, "s": list(s), "s_prime": list(sp), "s_dprime": list(sd)}
    return report, lines, EXIT_OK


def _cmd_multiset(args: argparse.Namespace) -> Report:
    if args.entries is None:
        raise ContractError("--entries is required")
    ms = _int_list(args.entries, "multiset")
    fam = _multiset_family_from(args)
    dec = multiset_decomposable(ms, fam)
    family_desc = (fam if fam is not None else DEFAULT_FAMILY).describe()
    if dec is None:
        lines = [f"not decomposable under family {family_desc}"]
        return {"status": "no", "multiset": list(ms), "family": family_desc}, lines, EXIT_NEGATIVE
    rendered = " + ".join("{" + ",".join(map(str, block)) + "}" for block in dec)
    lines = [f"decomposable: {rendered}"]
    report = {
        "status": "yes",
        "multiset": list(ms),
        "blocks": [list(b) for b in dec],
        "family": family_desc,
    }
    return report, lines, EXIT_OK


def _cmd_realizable(args: argparse.Namespace) -> Report:
    spec = _family_from(args)
    g = _graph_from(args)
    verdict = check_realizable(spec, g, _multiset_family_from(args))
    exit_codes = {"CertifiedRealizable": EXIT_OK, "CertifiedNotRealizable": EXIT_NEGATIVE}
    lines = verdict.to_text().splitlines()
    return verdict.to_json_dict(), lines, exit_codes.get(verdict.status, EXIT_INCONCLUSIVE)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _family_options(sp, families=family_choices()) -> None:
    sp.add_argument("--family", default=None, choices=families)
    sp.add_argument("--vector", default=None)
    sp.add_argument("--p", type=int, default=None)


def _ambient_options(sp) -> None:
    sp.add_argument("--free", default=None, metavar="GENS", help="free algebra `x:4,y:8,...`")
    sp.add_argument("--degree-bound", dest="degree_bound", type=int, default=None)
    sp.add_argument("--relations", default="default", help="default | adem-full | a:b,a:b,...")


def _multiset_family_option(sp) -> None:
    sp.add_argument("--multiset-family", dest="multiset_family", default=None)


def _common_options(sp, fn, cfg: dict[str, str], graph_positional: bool = True) -> None:
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--config", default=None, help="key=value config file; flags win")
    if graph_positional:
        sp.add_argument("graph", nargs="?", default=None, help="edge-list graph file")
    # last: an argument added after set_defaults keeps its own default
    sp.set_defaults(fn=fn, **cfg)


def _build_parser(cfg: dict[str, str]) -> argparse.ArgumentParser:
    """The parser, with the config file's values `cfg` as every subcommand's
    defaults; argparse types and checks them like the flags they stand for."""
    parser = argparse.ArgumentParser(
        prog="sr-chroma",
        description="Exact span-coloring, power-operation, and realizability certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("chromatic", help="exact chromatic number (optionally s_p-chi)")
    sp.add_argument("--span", type=int, default=None, metavar="P")
    _common_options(sp, _cmd_chromatic, cfg)

    sp = sub.add_parser("span-chromatic", help="exact span chromatic number over F_p")
    sp.add_argument("--p", type=int, default=None)
    _common_options(sp, _cmd_span_chromatic, cfg)

    sp = sub.add_parser("build-complex", help="print the family's join complex")
    _family_options(sp)
    _common_options(sp, _cmd_build_complex, cfg)

    sp = sub.add_parser("action-search", help="search for a power-operation table")
    _family_options(sp)
    _ambient_options(sp)
    sp.add_argument("--cap", type=int, default=DEFAULT_NODE_CAP, help="branch-node budget")
    _common_options(sp, _cmd_action_search, cfg)

    sp = sub.add_parser("action-check", help="check a serialized table")
    sp.add_argument("--table", default=None, help="file of `P^k(gen) = element` lines")
    _family_options(sp)
    _ambient_options(sp)
    _common_options(sp, _cmd_action_check, cfg)

    sp = sub.add_parser("necessary", help="span-chromatic necessary condition")
    _family_options(sp, families=family_choices(SPAN_CONDITION_KINDS))
    _common_options(sp, _cmd_necessary, cfg)

    sp = sub.add_parser("partition", help="sufficiency partition certificate")
    _family_options(sp)
    _multiset_family_option(sp)
    _common_options(sp, _cmd_partition, cfg)

    sp = sub.add_parser("decompose", help="split a size vector against a chromatic bound")
    sp.add_argument("--vector", default=None, help="comma-separated sizes")
    sp.add_argument("--c", type=int, default=None, help="chromatic bound (or give a graph)")
    _common_options(sp, _cmd_decompose, cfg)

    sp = sub.add_parser("multiset", help="decompose a degree multiset into allowed lists")
    sp.add_argument("--entries", default=None, help="comma-separated even degrees")
    _multiset_family_option(sp)
    _common_options(sp, _cmd_multiset, cfg, graph_positional=False)

    sp = sub.add_parser("realizable", help="full realizability verdict")
    _family_options(sp)
    _multiset_family_option(sp)
    _common_options(sp, _cmd_realizable, cfg)

    return parser


def main(argv=None) -> int:
    args = _build_parser({}).parse_args(argv)
    try:
        if args.config:
            args = _build_parser(_read_config(args.config)).parse_args(argv)
        # a config default is not checked against --format's choices
        if args.format not in ("text", "json"):
            raise ContractError(f"unknown output format {args.format!r}")
        report, lines, code = args.fn(args)
    except SearchSpaceExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SrChromaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, lines, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
