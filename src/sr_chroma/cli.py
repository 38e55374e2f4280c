"""Command-line front end.

Exit codes: 0 positive result, 1 certified negative, 2 input error,
3 resource cap exceeded, 4 inconclusive. Reports are reproducible byte for
byte, and `--format json` mirrors the text report structure one to one.
Options may also come from a `key=value` config file; flags win.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import parse_free_algebra
from .errors import ContractError, SearchSpaceExceeded, SrChromaError
from .families import FamilySpec, build_complex, parse_family
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
    check_ideal_preservation,
    check_relations,
    check_unstability,
    default_degree_bound,
    default_relation_set,
    full_adem_relation_set,
    necessary_condition,
    parse_table,
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


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ContractError(f"cannot read config file: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in CONFIG_KEYS:
                raise ContractError(f"config line {lineno}: expected `key=value` with a known key")
            cfg[key] = value.strip()
    return cfg


def _load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise ContractError(f"cannot read graph file: {exc}") from None


def _emit(report: dict, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)


class _Options:
    """Flag values backed by the optional config file; flags win."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = _read_config(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, default=None):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.cfg:
            return self.cfg[name]
        return default

    def get_int(self, name: str, default=None):
        value = self.get(name, default)
        if value is None or isinstance(value, int):
            return value
        try:
            return int(value)
        except ValueError:
            raise ContractError(f"option {name} expects an integer, got {value!r}") from None

    @property
    def fmt(self) -> str:
        fmt = self.get("format", "text")
        if fmt not in ("text", "json"):
            raise ContractError(f"unknown output format {fmt!r}")
        return fmt


def _family_from(opts: _Options) -> FamilySpec:
    kind = opts.get("family")
    vector = opts.get("vector")
    if kind is None or vector is None:
        raise ContractError("--family and --vector are required (or config keys family/vector)")
    return parse_family(kind, vector, opts.get_int("p"))


def _graph_from(opts: _Options) -> Graph:
    path = opts.get("graph")
    if path is None:
        raise ContractError("a graph file is required")
    return _load_graph(path)


def _ambient_and_p(opts: _Options):
    free = opts.get("free")
    if free is not None:
        p = opts.get_int("p")
        if p is None:
            raise ContractError("--p is required with --free")
        return parse_free_algebra(free), p, None
    spec = _family_from(opts)
    p = spec.p if spec.p is not None else opts.get_int("p")
    if p is None:
        raise ContractError("--p is required for the general A family")
    return build_complex(spec, _graph_from(opts)), p, spec


def _relations_from(opts: _Options, ambient, p: int, bound: int):
    text = opts.get("relations", "default")
    if text == "default":
        return default_relation_set(p)
    if text == "adem-full":
        return full_adem_relation_set(ambient, p, bound)
    rels = []
    for chunk in text.split(","):
        try:
            a, b = (int(x) for x in chunk.split(":"))
        except ValueError:
            raise ContractError(f"bad relation spec {chunk!r}, expected a:b") from None
        rels.append(adem_relation(a, b, p))
    return tuple(rels)


def _multiset_family_from(opts: _Options):
    path = opts.get("multiset_family")
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return load_family_file(fh.read())
    except OSError as exc:
        raise ContractError(f"cannot read multiset family file: {exc}") from None


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_chromatic(opts: _Options) -> int:
    g = _graph_from(opts)
    chi, witness = chromatic_number(g)
    lines = [f"chi = {chi}"]
    report: dict = {"chi": chi, "coloring": dict(sorted(witness.assignment.items()))}
    span_p = opts.get_int("span")
    if span_p is not None:
        value, span_witness = span_chromatic_number(g, span_p)
        lines.append(f"s_{span_p}chi = {value}")
        lines += span_witness.serialize().rstrip("\n").splitlines()
        report["span"] = {
            "p": span_p,
            "value": value,
            "witness": {v: list(vec.coords) for v, vec in sorted(span_witness.assignment.items())},
        }
    _emit(report, lines, opts.fmt)
    return EXIT_OK


def _cmd_span_chromatic(opts: _Options) -> int:
    g = _graph_from(opts)
    p = opts.get_int("p")
    if p is None:
        raise ContractError("--p is required")
    value, witness = span_chromatic_number(g, p)
    lines = [f"s_{p}chi = {value}"]
    lines += witness.serialize().rstrip("\n").splitlines()
    report = {
        "p": p,
        "value": value,
        "witness": {v: list(vec.coords) for v, vec in sorted(witness.assignment.items())},
    }
    _emit(report, lines, opts.fmt)
    return EXIT_OK


def _cmd_build_complex(opts: _Options) -> int:
    spec = _family_from(opts)
    g = _graph_from(opts)
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
    _emit(report, lines, opts.fmt)
    return EXIT_OK


def _cmd_action_search(opts: _Options) -> int:
    ambient, p, _spec = _ambient_and_p(opts)
    bound = opts.get_int("degree_bound", default_degree_bound(p))
    relations = _relations_from(opts, ambient, p, bound)
    cap = opts.get_int("cap", DEFAULT_NODE_CAP)
    outcome = search_action(ambient, p, bound, relations, cap)
    if outcome.found:
        lines = ["found"] + outcome.table.serialize().rstrip("\n").splitlines()
        report = {
            "status": "found",
            "table": {f"P^{k}({lbl})": str(el) for (lbl, k), el in sorted(
                outcome.table.entries.items(), key=lambda kv: (ambient.label_index[kv[0][0]], kv[0][1])
            )},
            "degree_bound": outcome.degree_bound,
            "relations": list(outcome.relation_names),
            "nodes": outcome.nodes,
        }
        _emit(report, lines, opts.fmt)
        return EXIT_OK
    lines = [outcome.relativity()]
    report = {
        "status": "exhausted",
        "degree_bound": outcome.degree_bound,
        "relations": list(outcome.relation_names),
        "nodes": outcome.nodes,
    }
    _emit(report, lines, opts.fmt)
    return EXIT_NEGATIVE


def _cmd_action_check(opts: _Options) -> int:
    ambient, p, _spec = _ambient_and_p(opts)
    table_path = opts.get("table")
    if table_path is None:
        raise ContractError("--table is required")
    try:
        with open(table_path, encoding="utf-8") as fh:
            table = parse_table(fh.read(), ambient, p)
    except OSError as exc:
        raise ContractError(f"cannot read table file: {exc}") from None
    bound = opts.get_int("degree_bound", default_degree_bound(p))
    relations = _relations_from(opts, ambient, p, bound)
    reports = [
        check_relations(table, relations, bound),
        check_ideal_preservation(table),
        check_unstability(table),
    ]
    lines = []
    for rep in reports:
        lines += rep.to_text().splitlines()
    report = {"checks": [rep.to_json_dict() for rep in reports]}
    _emit(report, lines, opts.fmt)
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_NEGATIVE


def _cmd_necessary(opts: _Options) -> int:
    spec = _family_from(opts)
    g = _graph_from(opts)
    outcome = necessary_condition(spec, g)
    lines = [outcome.describe()]
    report = {
        "passed": outcome.passed,
        "p": outcome.p,
        "bound": outcome.bound,
        "span_chromatic": outcome.span_value,
    }
    _emit(report, lines, opts.fmt)
    return EXIT_INCONCLUSIVE if outcome.passed else EXIT_NEGATIVE


def _cmd_partition(opts: _Options) -> int:
    spec = _family_from(opts)
    g = _graph_from(opts)
    k = build_complex(spec, g)
    part = sufficiency_partition(k, _multiset_family_from(opts))
    if part is None:
        chi, _ = chromatic_number(g)
        lines = [f"no partition construction applies (chi = {chi})"]
        _emit({"status": "unavailable", "chi": chi}, lines, opts.fmt)
        return EXIT_INCONCLUSIVE
    lines = part.serialize(k).rstrip("\n").splitlines()
    lines.append("verified: True")
    report = {
        "partition": [sorted(b, key=k.label_index.get) for b in part.blocks],
        "verified": True,
    }
    _emit(report, lines, opts.fmt)
    return EXIT_OK


def _cmd_decompose(opts: _Options) -> int:
    vector_text = opts.get("vector")
    if vector_text is None:
        raise ContractError("--vector is required")
    try:
        s = tuple(int(x) for x in vector_text.split(","))
    except ValueError:
        raise ContractError(f"bad vector {vector_text!r}") from None
    c = opts.get_int("c")
    if c is None:
        g = _graph_from(opts)
        c, _ = chromatic_number(g)
    dec = decompose_s(s, c)
    if dec is None:
        lines = [f"no decomposition of ({vector_text}) for c = {c} (exhausted all candidates)"]
        _emit({"status": "none", "c": c, "s": list(s)}, lines, opts.fmt)
        return EXIT_NEGATIVE
    sp, sd = dec
    lines = [f"s'  = {','.join(map(str, sp))}", f"s'' = {','.join(map(str, sd))}"]
    report = {"status": "found", "c": c, "s": list(s), "s_prime": list(sp), "s_dprime": list(sd)}
    _emit(report, lines, opts.fmt)
    return EXIT_OK


def _cmd_multiset(opts: _Options) -> int:
    entries_text = opts.get("entries")
    if entries_text is None:
        raise ContractError("--entries is required")
    try:
        ms = tuple(int(x) for x in entries_text.split(","))
    except ValueError:
        raise ContractError(f"bad multiset {entries_text!r}") from None
    fam = _multiset_family_from(opts)
    dec = multiset_decomposable(ms, fam)
    family_desc = (fam if fam is not None else DEFAULT_FAMILY).describe()
    if dec is None:
        lines = [f"not decomposable under family {family_desc}"]
        _emit({"status": "no", "multiset": list(ms), "family": family_desc}, lines, opts.fmt)
        return EXIT_NEGATIVE
    rendered = " + ".join("{" + ",".join(map(str, block)) + "}" for block in dec)
    lines = [f"decomposable: {rendered}"]
    report = {
        "status": "yes",
        "multiset": list(ms),
        "blocks": [list(b) for b in dec],
        "family": family_desc,
    }
    _emit(report, lines, opts.fmt)
    return EXIT_OK


def _cmd_realizable(opts: _Options) -> int:
    spec = _family_from(opts)
    g = _graph_from(opts)
    verdict = check_realizable(spec, g, _multiset_family_from(opts))
    lines = verdict.to_text().splitlines()
    _emit(verdict.to_json_dict(), lines, opts.fmt)
    if verdict.status == "CertifiedRealizable":
        return EXIT_OK
    if verdict.status == "CertifiedNotRealizable":
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sr-chroma",
        description="Exact span-coloring, power-operation, and realizability certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, graph_positional=True):
        sp.add_argument("--format", choices=("text", "json"), default=None)
        sp.add_argument("--config", default=None, help="key=value config file; flags win")
        if graph_positional:
            sp.add_argument("graph", nargs="?", default=None, help="edge-list graph file")

    sp = sub.add_parser("chromatic", help="exact chromatic number (optionally s_p-chi)")
    sp.add_argument("--span", type=int, default=None, metavar="P")
    common(sp)
    sp.set_defaults(fn=_cmd_chromatic)

    sp = sub.add_parser("span-chromatic", help="exact span chromatic number over F_p")
    sp.add_argument("--p", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_span_chromatic)

    sp = sub.add_parser("build-complex", help="print the family's join complex")
    sp.add_argument("--family", default=None, choices=("A", "Ap", "Bp", "B", "A_p", "B_p"))
    sp.add_argument("--vector", default=None)
    sp.add_argument("--p", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_build_complex)

    sp = sub.add_parser("action-search", help="search for a power-operation table")
    sp.add_argument("--family", default=None, choices=("A", "Ap", "Bp", "B", "A_p", "B_p"))
    sp.add_argument("--vector", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--free", default=None, metavar="GENS", help="free algebra `x:4,y:8,...`")
    sp.add_argument("--degree-bound", dest="degree_bound", type=int, default=None)
    sp.add_argument("--relations", default=None, help="default | adem-full | a:b,a:b,...")
    sp.add_argument("--cap", type=int, default=None, help="branch-node budget")
    common(sp)
    sp.set_defaults(fn=_cmd_action_search)

    sp = sub.add_parser("action-check", help="check a serialized table")
    sp.add_argument("--table", default=None, help="file of `P^k(gen) = element` lines")
    sp.add_argument("--family", default=None, choices=("A", "Ap", "Bp", "B", "A_p", "B_p"))
    sp.add_argument("--vector", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--free", default=None, metavar="GENS")
    sp.add_argument("--degree-bound", dest="degree_bound", type=int, default=None)
    sp.add_argument("--relations", default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_action_check)

    sp = sub.add_parser("necessary", help="span-chromatic necessary condition")
    sp.add_argument("--family", default=None, choices=("Ap", "Bp", "B", "A_p", "B_p"))
    sp.add_argument("--vector", default=None)
    sp.add_argument("--p", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_necessary)

    sp = sub.add_parser("partition", help="sufficiency partition certificate")
    sp.add_argument("--family", default=None, choices=("A", "Ap", "Bp", "B", "A_p", "B_p"))
    sp.add_argument("--vector", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--multiset-family", dest="multiset_family", default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_partition)

    sp = sub.add_parser("decompose", help="split a size vector against a chromatic bound")
    sp.add_argument("--vector", default=None, help="comma-separated sizes")
    sp.add_argument("--c", type=int, default=None, help="chromatic bound (or give a graph)")
    common(sp)
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("multiset", help="decompose a degree multiset into allowed lists")
    sp.add_argument("--entries", default=None, help="comma-separated even degrees")
    sp.add_argument("--multiset-family", dest="multiset_family", default=None)
    common(sp, graph_positional=False)
    sp.set_defaults(fn=_cmd_multiset)

    sp = sub.add_parser("realizable", help="full realizability verdict")
    sp.add_argument("--family", default=None, choices=("A", "Ap", "Bp", "B", "A_p", "B_p"))
    sp.add_argument("--vector", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--multiset-family", dest="multiset_family", default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_realizable)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _Options(args)
        return args.fn(opts)
    except SearchSpaceExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SrChromaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
