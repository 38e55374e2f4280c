"""CLI behavior: exit codes, reproducible reports, json mirroring, config."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sr_chroma
from sr_chroma.cli import main

K3 = "v 1\nv 2\nv 3\ne 1 2\ne 2 3\ne 1 3\n"
EDGE = "v a\nv b\ne a b\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.g"
    path.write_text(K3)
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.g"
    path.write_text(EDGE)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_code(capsys, argv):
    """`run`, with argparse's SystemExit read as the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chromatic_text(capsys, k3_file):
    code, out, _ = run(capsys, ["chromatic", k3_file])
    assert code == 0
    assert out.splitlines()[0] == "chi = 3"


def test_chromatic_with_span_witness(capsys, k3_file):
    code, out, _ = run(capsys, ["chromatic", k3_file, "--span", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "chi = 3"
    assert lines[1] == "s_2chi = 3"
    assert len(lines) == 5  # three witness lines


def test_chromatic_with_span_on_a_long_path(capsys, tmp_path):
    path = tmp_path / "path.g"
    vertices = "".join(f"v {i}\n" for i in range(1500))
    path.write_text(vertices + "".join(f"e {i} {i + 1}\n" for i in range(1499)))
    code, out, _ = run(capsys, ["chromatic", str(path), "--span", "3"])
    assert code == 0
    assert out.splitlines()[:2] == ["chi = 2", "s_3chi = 2"]


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, ["chromatic", str(tmp_path / "missing.g")])
    assert code == 2
    assert "error" in err


def test_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.g"
    path.write_text("v a\ne a a\n")
    code, _, err = run(capsys, ["chromatic", str(path)])
    assert code == 2
    assert "line 2" in err


def test_span_chromatic_command(capsys, edge_file):
    code, out, _ = run(capsys, ["span-chromatic", edge_file, "--p", "3"])
    assert code == 0
    assert out.splitlines()[0] == "s_3chi = 2"


def test_reports_are_byte_identical(capsys, k3_file):
    _, first, _ = run(capsys, ["realizable", "--family", "A", "--vector", "1,1", k3_file])
    _, second, _ = run(capsys, ["realizable", "--family", "A", "--vector", "1,1", k3_file])
    assert first == second


def test_json_round_trip(capsys, k3_file):
    code, out, _ = run(
        capsys, ["realizable", "--family", "A", "--vector", "1,1", "--format", "json", k3_file]
    )
    assert code == 1
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["status"] == "CertifiedNotRealizable"
    assert payload["witness"]["multiset"] == [4, 6, 8, 8]


def test_realizable_exit_codes(capsys, k3_file):
    code, out, _ = run(capsys, ["realizable", "--family", "B", "--vector", "3", k3_file])
    assert code == 0
    assert out.splitlines()[0] == "status: CertifiedRealizable"
    code, _, _ = run(capsys, ["realizable", "--family", "B", "--vector", "2", k3_file])
    assert code == 1


def test_realizable_inconclusive_exit(capsys, tmp_path):
    c5 = tmp_path / "c5.g"
    c5.write_text("v 1\nv 2\nv 3\nv 4\nv 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    code, out, _ = run(capsys, ["realizable", "--family", "A", "--vector", "2,2", str(c5)])
    assert code == 4
    assert out.splitlines()[0] == "status: Inconclusive"


def test_necessary_exit_codes(capsys, edge_file, k3_file):
    code, out, _ = run(capsys, ["necessary", "--family", "B", "--vector", "1", edge_file])
    assert code == 1
    assert out.strip() == "s_3chi=2 > bound=1"
    code, _, _ = run(capsys, ["necessary", "--family", "B", "--vector", "3", k3_file])
    assert code == 4


def test_action_search_exhausted(capsys):
    code, out, _ = run(capsys, ["action-search", "--free", "y:8", "--p", "3"])
    assert code == 1
    assert out.startswith("exhausted (relative to relation set")


def test_action_search_found_and_check_round_trip(capsys, tmp_path):
    c4 = tmp_path / "c4.g"
    c4.write_text("v 1\nv 2\nv 3\nv 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    code, out, _ = run(
        capsys, ["action-search", "--family", "B", "--vector", "2", str(c4)]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "found"
    table_file = tmp_path / "table.txt"
    table_file.write_text("\n".join(lines[1:]) + "\n")
    code, out, _ = run(
        capsys,
        ["action-check", "--family", "B", "--vector", "2", str(c4), "--table", str(table_file)],
    )
    assert code == 0
    assert "pass" in out


def test_action_check_flags_violations(capsys, tmp_path):
    table_file = tmp_path / "table.txt"
    table_file.write_text("P^1(y) = 0\nP^2(y) = 0\nP^3(y) = 0\n")
    code, out, _ = run(
        capsys, ["action-check", "--free", "y:8", "--p", "3", "--table", str(table_file)]
    )
    assert code == 1
    assert "violation" in out


def test_action_search_even_prime_usage_error(capsys):
    code, _, err = run(capsys, ["action-search", "--free", "y:8", "--p", "2"])
    assert code == 2
    assert "odd prime" in err


def test_action_check_even_prime_usage_error(capsys, tmp_path):
    table_file = tmp_path / "empty.tbl"
    table_file.write_text("")
    argv = ["action-check", "--free", "y:8", "--p", "2", "--table", str(table_file)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "odd prime" in err


def test_action_search_p_below_two_is_input_error():
    # a subprocess with a timeout, since the full Adem set never ended for p <= 1
    src = str(Path(sr_chroma.__file__).resolve().parents[1])
    for p in ("1", "-1"):
        argv = ["action-search", "--free", "x:4", f"--p={p}", "--relations", "adem-full"]
        proc = subprocess.run(
            [sys.executable, "-m", "sr_chroma.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: Adem relations need an odd prime, got {p}\n"


def test_action_search_full_adem_set_without_generators(capsys, tmp_path):
    path = tmp_path / "empty.g"
    path.write_text("")
    argv = ["action-search", "--family", "B", "--vector", "0", str(path)]
    assert run(capsys, argv) == (0, "found\n", "")
    assert run(capsys, argv + ["--relations", "adem-full"]) == (0, "found\n", "")


@pytest.mark.parametrize("spec", ["x:3", "1:", "1:2:3", "3"])
def test_action_search_bad_relation_spec_is_input_error(capsys, spec):
    argv = ["action-search", "--free", "x:4", "--p", "3", "--relations", spec]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: bad relation spec {spec!r}, expected a:b\n"


def test_action_search_cap_exit(capsys):
    code, _, err = run(capsys, ["action-search", "--free", "x:4", "--p", "3", "--cap", "1"])
    assert code == 3
    assert "budget" in err
    assert "node budget of 1 exceeded after exploring 2 branch nodes" in err


def test_action_search_negative_cap_is_input_error(capsys):
    code, out, err = run(capsys, ["action-search", "--free", "x:4", "--p", "3", "--cap", "-5"])
    assert code == 2
    assert out == ""
    assert "node cap must be non-negative" in err


def test_action_search_negative_degree_bound_is_input_error(capsys):
    code, out, err = run(
        capsys, ["action-search", "--free", "x:4", "--p", "3", "--degree-bound", "-1"]
    )
    assert code == 2 and out == ""
    assert "degree bound must be non-negative" in err


def test_action_check_negative_degree_bound_is_input_error(capsys, tmp_path):
    table_file = tmp_path / "empty.tbl"
    table_file.write_text("")
    argv = ["action-check", "--free", "x:4", "--p", "3", "--table", str(table_file)]
    code, out, err = run(capsys, argv + ["--degree-bound", "-1"])
    assert code == 2 and out == ""
    assert "degree bound must be non-negative" in err



def test_action_check_on_1200_generators(capsys, tmp_path):
    # the relation bases enumerate every generator; only x0 is checked
    table_file = tmp_path / "empty.tbl"
    table_file.write_text("")
    gens = ",".join(["x0:2"] + [f"x{i}:4" for i in range(1, 1200)])
    argv = ["action-check", "--free", gens, "--p", "3", "--degree-bound", "18"]
    code, out, err = run(capsys, argv + ["--table", str(table_file)])
    assert (code, err) == (0, "")
    assert out.startswith("relation check (relations=P^1P^3 = P^4, degree_bound=18): pass")


def test_build_complex_output(capsys, k3_file):
    code, out, _ = run(capsys, ["build-complex", "--family", "B", "--vector", "2", k3_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family = B"
    assert lines[1] == "p = 3"
    assert lines[2] == "vector = 2"
    assert "graph:" in lines
    assert "e 1 2" in lines


def test_partition_command(capsys, k3_file):
    code, out, _ = run(capsys, ["partition", "--family", "B", "--vector", "3", k3_file])
    assert code == 0
    assert out.splitlines()[0].startswith("V_1:")
    assert "verified: True" in out


def test_partition_command_non_uniform(capsys, edge_file, k3_file):
    code, out, _ = run(
        capsys, ["partition", "--family", "Bp", "--p", "5", "--vector", "3,2", edge_file]
    )
    assert code == 0
    assert "verified: True" in out
    code, _, _ = run(capsys, ["partition", "--family", "A", "--vector", "1,1", k3_file])
    assert code == 4  # chi = 3, no construction applies


def _family_file(tmp_path, text):
    path = tmp_path / "fam.txt"
    path.write_text(text)
    return str(path)


def test_realizable_rechecks_partition_against_multiset_family(capsys, tmp_path, edge_file):
    fam = _family_file(tmp_path, "4\n8\n")
    code, out, err = run(
        capsys, ["realizable", "--family", "B", "--vector", "2", "--multiset-family", fam, edge_file]
    )
    assert code == 4
    assert out.splitlines()[0] == "status: Inconclusive"
    assert "V_1" not in out and "Traceback" not in err


def test_partition_rejected_by_multiset_family_is_inconclusive(capsys, tmp_path, edge_file):
    fam = _family_file(tmp_path, "4\n6\n8\n")
    base = ["--family", "A", "--vector", "2,1", "--multiset-family", fam, edge_file]
    code, out, err = run(capsys, ["realizable"] + base)
    assert code == 4
    assert out.splitlines()[0] == "status: Inconclusive"
    assert "Traceback" not in err
    code, out, err = run(capsys, ["partition"] + base)
    assert code == 4
    assert out == "no partition construction applies (chi = 2)\n"
    assert "Traceback" not in err


def test_partition_scheme_option_is_gone(capsys, edge_file):
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--family", "B", "--vector", "2", "--scheme", "A", edge_file])
    assert exc.value.code == 2
    assert "--scheme" in capsys.readouterr().err


def test_decompose_command(capsys):
    code, out, _ = run(capsys, ["decompose", "--vector", "5,3,4,2", "--c", "3"])
    assert code == 0
    assert out.splitlines() == ["s'  = 3,3,2,2", "s'' = 2,0,2,0"]
    code, _, _ = run(capsys, ["decompose", "--vector", "1,1", "--c", "3"])
    assert code == 1


def test_decompose_long_vector_answers_at_once(capsys):
    vector = ",".join(["30"] * 24)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["decompose", "--vector", vector, "--c", "100"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == f"no decomposition of ({vector}) for c = 100 exists\n"


def test_realizable_long_vector_on_k61_answers_at_once(capsys, tmp_path):
    path = tmp_path / "k61.g"
    path.write_text("".join(f"v {i}\n" for i in range(61)) + "".join(
        f"e {i} {j}\n" for i in range(61) for j in range(i + 1, 61)
    ))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["realizable", "--family", "A", "--vector", ",".join(["30"] * 24), str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert out.splitlines()[0] == "status: Inconclusive"


def test_decompose_negative_size_is_input_error(capsys):
    for vector, c in (("-1,2", "1"), ("3,-1", "0")):
        code, out, err = run(capsys, ["decompose", f"--vector={vector}", "--c", c])
        assert code == 2 and out == ""
        assert "non-negative" in err


def test_decompose_takes_chromatic_from_graph(capsys, k3_file):
    code, out, _ = run(capsys, ["decompose", "--vector", "3,2", k3_file])
    assert code == 0
    assert json.loads(run(capsys, ["decompose", "--vector", "3,2", k3_file, "--format", "json"])[1])["c"] == 3


def test_multiset_command(capsys):
    code, out, _ = run(capsys, ["multiset", "--entries", "4,6,8,8"])
    assert code == 1
    code, out, _ = run(capsys, ["multiset", "--entries", "4,4,6,8,8"])
    assert code == 0
    assert "{4,6,8} + {4,8}" in out


def test_multiset_of_1000_entries(capsys):
    code, out, err = run(capsys, ["multiset", "--entries", ",".join(["2"] * 1000)])
    assert (code, err) == (0, "")
    assert out == "decomposable: " + " + ".join(["{2}"] * 1000) + "\n"


def test_realizable_on_a_block_of_1000(capsys, edge_file):
    code, out, err = run(capsys, ["realizable", "--family", "B", "--vector", "1000", edge_file])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "status: CertifiedRealizable"


def test_multiset_family_file_override(capsys, tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text("4,6,8,8\n")
    code, _, _ = run(
        capsys, ["multiset", "--entries", "4,6,8,8", "--multiset-family", str(fam)]
    )
    assert code == 0


def test_config_file_supplies_defaults_and_flags_win(capsys, tmp_path, k3_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"family=B\nvector=3\ngraph={k3_file}\nformat=json\n")
    code, out, _ = run(capsys, ["realizable", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["status"] == "CertifiedRealizable"
    # flag overrides config
    code, out, _ = run(capsys, ["realizable", "--config", str(cfg), "--vector", "2"])
    assert code == 1


@pytest.mark.parametrize("vector", ["1,,2", ",2", "1,2,"])
@pytest.mark.parametrize("command", ["realizable", "build-complex", "config"])
def test_empty_family_vector_slot_is_input_error(capsys, tmp_path, k3_file, command, vector):
    if command == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"family=A\nvector={vector}\n")
        argv = ["realizable", "--config", str(cfg), k3_file]
    else:
        argv = [command, "--family", "A", f"--vector={vector}", k3_file]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: bad family vector {vector!r}\n")


def test_blank_family_vector_is_empty(capsys, k3_file):
    code, out, err = run(capsys, ["build-complex", "--family", "A", "--vector= ", k3_file])
    assert (code, out, err) == (2, "", "error: family vector must be non-empty\n")


def test_config_vector_reaches_decompose(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("vector=5,3,4,2\n")
    code, out, _ = run(capsys, ["decompose", "--c", "3", "--config", str(cfg)])
    assert (code, out) == (0, "s'  = 3,3,2,2\ns'' = 2,0,2,0\n")


@pytest.mark.parametrize("text", ["p=abc\n", "p=3\ndegree_bound=x\n"])
def test_non_integer_config_value_is_input_error(capsys, tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_code(capsys, ["action-search", "--free", "x:4", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "invalid int value" in err


def test_duplicate_config_key_is_input_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=abc\np=3\n")
    argv = ["action-search", "--free", "y:8", "--config", str(cfg)]
    assert run(capsys, argv) == (2, "", "error: config line 2: duplicate key 'p'\n")


def test_config_format_is_checked_before_the_command_runs(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=xml\n")
    argv = ["action-search", "--free", "x:4", "--p", "3", "--cap", "1", "--config", str(cfg)]
    assert run(capsys, argv) == (2, "", "error: unknown output format 'xml'\n")


def test_unknown_config_key_rejected(capsys, tmp_path, k3_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n")
    code, _, err = run(capsys, ["chromatic", k3_file, "--config", str(cfg)])
    assert code == 2
    assert "config line 1" in err


def test_missing_config_file(capsys, tmp_path, k3_file):
    code, _, err = run(capsys, ["chromatic", k3_file, "--config", str(tmp_path / "no.cfg")])
    assert code == 2
    assert "config" in err


# -- oracle: the CLI reports, stdout and exit code ---------------------------
#
# A refactor of the CLI must leave every report byte-identical. The digest is
# sha256 over (argv template, exit code, stdout) of each invocation below, run
# once as written and once with `--format json` appended, in this order. The
# `{name}` fields are files written from CLI_FILES into a temporary directory;
# the digest takes the template, so it does not depend on where that is.

CLI_FILES = {
    "k3": K3,
    "edge": EDGE,
    "c4": "v 1\nv 2\nv 3\nv 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n",
    "c5": "v 1\nv 2\nv 3\nv 4\nv 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n",
    "chains": "4,8\n4\n",
    "wide": "4,6,8,8\n",
    "x_table": "P^1(x) = 1*x^2\nP^2(x) = 1*x^3\n",
    "y_table": "P^1(y) = 0\nP^2(y) = 0\nP^3(y) = 0\n",
    "empty": "",
    "real_cfg": "family=B\nvector=3\ngraph={k3}\n",
    "json_cfg": "graph={k3}\nformat=json\n",
    "span_cfg": "p=3\ngraph={edge}\n",
    "action_cfg": "p=3\ndegree_bound=12\nrelations=adem-full\n",
    "decompose_cfg": "vector=5,3,4,2\n",
    "multiset_cfg": "multiset_family={wide}\n",
}
CLI_CORPUS = (
    "chromatic {k3}",
    "chromatic {k3} --span 2",
    "chromatic {c5} --span 3",
    "chromatic {missing}",
    "span-chromatic {edge} --p 3",
    "span-chromatic {c5} --p 2",
    "span-chromatic {edge}",
    "build-complex --family B --vector 2 {k3}",
    "build-complex --family Ap --p 3 --vector 2,1 {edge}",
    "build-complex --family A --vector 1,1 {edge}",
    "action-search --free y:8 --p 3",
    "action-search --family B --vector 2 {c4}",
    "action-search --free x:4 --p 3 --degree-bound 12 --relations 1:1",
    "action-search --free x:4 --p 3 --cap 1",
    "action-check --free x:4 --p 3 --table {x_table}",
    "action-check --free y:8 --p 3 --table {y_table}",
    "action-check --family B --vector 2 {c4} --table {empty}",
    "action-check --free x:4 --p 3 --table {missing}",
    "necessary --family B --vector 1 {edge}",
    "necessary --family B --vector 3 {k3}",
    "necessary --family Bp --p 5 --vector 1,1 {k3}",
    "partition --family B --vector 3 {k3}",
    "partition --family Bp --p 5 --vector 3,2 {edge}",
    "partition --family A --vector 1,1 {k3}",
    "partition --family A --vector 2,1 --multiset-family {chains} {edge}",
    "decompose --vector 5,3,4,2 --c 3",
    "decompose --vector 1,1 --c 3",
    "decompose --vector 3,2 {k3}",
    "decompose --vector 3,x --c 2",
    "multiset --entries 4,6,8,8",
    "multiset --entries 4,4,6,8,8",
    "multiset --entries 4,6,8,8 --multiset-family {wide}",
    "multiset --entries 4,y",
    "realizable --family B --vector 3 {k3}",
    "realizable --family B --vector 2 {k3}",
    "realizable --family A --vector 1,1 {k3}",
    "realizable --family A --vector 2,2 {c5}",
    "realizable --family B --vector 3 --multiset-family {chains} {k3}",
    "realizable --family B --vector 3 --multiset-family {missing} {k3}",
    "realizable --config {real_cfg}",
    "realizable --config {real_cfg} --vector 2",
    "necessary --config {real_cfg}",
    "partition --config {real_cfg}",
    "build-complex --config {real_cfg}",
    "decompose --config {real_cfg}",
    "chromatic --config {json_cfg}",
    "chromatic --config {json_cfg} --format text",
    "span-chromatic --config {span_cfg}",
    "action-search --free x:4 --config {action_cfg}",
    "action-check --free x:4 --table {x_table} --config {action_cfg}",
    "decompose --c 3 --config {decompose_cfg}",
    "multiset --entries 4,6,8,8 --config {multiset_cfg}",
    "chromatic {k3} --config {missing}",
)
CLI_REPORTS_SHA256 = "530954ddb7d34a213da2fd9647d0d709f94e3988605a096e73d9471fc2e13b11"


def test_cli_reports_oracle(capsys, tmp_path):
    paths = {name: str(tmp_path / name) for name in CLI_FILES}
    paths["missing"] = str(tmp_path / "missing")
    for name, text in CLI_FILES.items():
        (tmp_path / name).write_text(text.format(**paths))
    digest = hashlib.sha256()
    for template in CLI_CORPUS:
        for extra in ((), ("--format", "json")):
            argv = template.format(**paths).split() + list(extra)
            code, out, _ = run_code(capsys, argv)
            digest.update(repr((template.split() + list(extra), code, out)).encode())
    assert digest.hexdigest() == CLI_REPORTS_SHA256


# -- oracle: which input error the action commands report first ---------------
#
# A malformed relation pair, an even or too small prime and a negative degree
# bound can meet in one invocation; this pins which of them is reported. The
# digest is sha256 over (argv template, exit code, stdout, stderr)
# of each command below under every --relations value, --p from 1 to 5 and
# --degree-bound -1, 0 or unset, nested in that order. The valid cells run
# their search or check, so stdout is pinned too.

ERROR_ORDER_COMMANDS = (
    "action-search --free x:4",
    "action-check --free x:4 --table {empty}",
    "action-search --family A --vector 1,1 {k3}",
)
ERROR_ORDER_RELATIONS = ("default", "adem-full", "1:3", "1:x", "1:2,1:x")
ERROR_ORDER_SHA256 = "4295397b4e140424845b8a36b70a7812d184774f269a320e58bda3a5e353d39e"


def test_action_error_order_oracle(capsys, tmp_path):
    paths = {"empty": str(tmp_path / "empty"), "k3": str(tmp_path / "k3")}
    (tmp_path / "empty").write_text("")
    (tmp_path / "k3").write_text(K3)
    digest = hashlib.sha256()
    for command in ERROR_ORDER_COMMANDS:
        for relations in ERROR_ORDER_RELATIONS:
            for p in range(1, 6):
                for bound in ("-1", "0", None):
                    template = f"{command} --relations {relations} --p {p}"
                    if bound is not None:
                        template += f" --degree-bound {bound}"
                    code, out, err = run_code(capsys, template.format(**paths).split())
                    digest.update(repr((template.split(), code, out, err)).encode())
    assert digest.hexdigest() == ERROR_ORDER_SHA256


def test_duplicate_table_entry_is_input_error(capsys, tmp_path):
    table_file = tmp_path / "table.txt"
    table_file.write_text("P^1(x) = 2*x^2\nP^1(x) = 1*x^2\n")
    argv = ["action-check", "--free", "x:4", "--p", "3", "--table", str(table_file)]
    assert run(capsys, argv) == (2, "", "error: line 2: duplicate entry P^1(x)\n")


@pytest.mark.parametrize("bad", ["4,-8", "4,7"])
def test_family_file_degree_typo_is_input_error(capsys, tmp_path, k3_file, bad):
    argv = ["realizable", "--family", "B", "--vector", "3", "--multiset-family"]
    code, out, _ = run(capsys, argv + [_family_file(tmp_path, "4,8\n4\n"), k3_file])
    assert (code, out.splitlines()[0]) == (0, "status: CertifiedRealizable")
    code, out, err = run(capsys, argv + [_family_file(tmp_path, f"{bad}\n4\n"), k3_file])
    assert (code, out) == (2, "")
    assert err == f"error: line 1: degrees must be positive even integers, got '{bad}'\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_keeps_the_exit_code(k3_file, unbuffered):
    src = str(Path(sr_chroma.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sr_chroma.cli", "realizable", "--family", "B", "--vector", "3", k3_file],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
