"""End-to-end command-line coverage: every subcommand, exit codes, JSON shapes."""

import contextlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from cluster_presents import cli, coset, dynkin, roots
from cluster_presents.cli import main
from cluster_presents.coset import DEFAULT_COSET_CAP, weyl_order
from cluster_presents.diagram import diagram_of, mutate_diagram
from cluster_presents.exchange import mutate_matrix
from cluster_presents.formats import (
    FormatError,
    dump_matrix,
    load_basis,
    load_diagram,
    load_matrix,
    load_presentation,
    load_signed_graph,
)
from cluster_presents.presentation import Presentation, Relation, _relations, full_presentation
from cluster_presents.roots import _carried_simple_roots, build_root_system


DATA = pathlib.Path(__file__).parent / "data"

A2_MATRIX = "2\n0 1\n-1 0\n"
A3_MATRIX = "3\n0 1 0\n-1 0 1\n0 -1 0\n"
CYCLE_MATRIX = "4\n0 1 0 -1\n-1 0 1 0\n0 -1 0 1\n1 0 -1 0\n"
WIDE_MATRIX = "2\n0 2\n-2 0\n"
A3_SIMPLE_BASIS = "1 0 0\n0 1 0\n0 0 1\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def _assert_usage_error(capsys, argv):
    """The command exits 2 with exactly one `error:` line on stderr and no output."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# ------------------------------------------------------------ matrix / diagram


def test_matrix_mutate_text(tmp_path, capsys):
    path = _write(tmp_path, "a2.mat", A2_MATRIX)
    assert main(["matrix", "mutate", path, "1"]) == 0
    assert capsys.readouterr().out == "2\n 0 -1\n 1  0\n"


def test_matrix_mutate_twice_is_identity(tmp_path, capsys):
    path = _write(tmp_path, "a2.mat", A2_MATRIX)
    assert main(["matrix", "mutate", path, "2", "2", "--json"]) == 0
    data = _json_out(capsys)
    assert data == {"n": 2, "rows": [[0, 1], [-1, 0]]}


def test_matrix_mutate_vertex_out_of_range(tmp_path):
    path = _write(tmp_path, "a2.mat", A2_MATRIX)
    with pytest.raises(SystemExit) as err:
        main(["matrix", "mutate", path, "3"])
    assert err.value.code == 2


def test_missing_file_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["matrix", "mutate", "/nonexistent/path.mat", "1"])
    assert err.value.code == 2


def test_diagram_of(tmp_path, capsys):
    path = _write(tmp_path, "a2.mat", A2_MATRIX)
    assert main(["diagram", "of", path]) == 0
    assert capsys.readouterr().out == "2\n1 2 1\n"


def test_diagram_mutate_accepts_diagram_or_matrix_input(tmp_path, capsys):
    mat = _write(tmp_path, "a3.mat", A3_MATRIX)
    assert main(["diagram", "mutate", mat, "2"]) == 0
    from_matrix = capsys.readouterr().out
    diag = _write(tmp_path, "a3.diag", "3\n1 2 1\n2 3 1\n")
    assert main(["diagram", "mutate", diag, "2"]) == 0
    assert capsys.readouterr().out == from_matrix
    # mutating the middle of the path closes an oriented triangle
    assert "1 3 1" in from_matrix


def test_diagram_class_json(tmp_path, capsys):
    path = _write(tmp_path, "a3.mat", A3_MATRIX)
    assert main(["diagram", "class", path, "--json"]) == 0
    data = _json_out(capsys)
    assert data["size"] == 4
    assert data["type"] == "A3"
    assert len(data["members"]) == 4
    assert data["mutation_edges"]


def test_diagram_class_rejects_wide_matrix(tmp_path, capsys):
    path = _write(tmp_path, "wide.mat", WIDE_MATRIX)
    assert main(["diagram", "class", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_diagram_type(tmp_path, capsys):
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["diagram", "type", path]) == 0
    assert capsys.readouterr().out == "D4\n"


@pytest.mark.parametrize("label", [label for n in range(1, 9) for label in dynkin.labels_of_rank(n)])
def test_diagram_type_names_every_catalogue_type(tmp_path, capsys, label):
    rng = random.Random(label)
    matrix = dynkin.standard_exchange_matrix(label)
    for _ in range(6):
        matrix = mutate_matrix(matrix, rng.randrange(matrix.n))
    assert main(["diagram", "type", _write(tmp_path, "member.mat", dump_matrix(matrix))]) == 0
    assert capsys.readouterr().out == label + "\n"


STAR_DIAGRAM = "5\n1 2 1\n1 3 1\n1 4 1\n1 5 1\n"  # the affine D4 star
# the input's own vertices, 1-based
STAR_BREAKDOWN = "mutation at 5: path 2->5->1 closed by a same-direction edge 2->1 (diagram is not of finite type)"


def test_diagram_type_refuses_the_affine_d4_star(tmp_path, capsys):
    assert main(["diagram", "type", _write(tmp_path, "star.dia", STAR_DIAGRAM)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {STAR_BREAKDOWN}\n")


# the affine D4 star has a companion, and it is not positive definite
STAR_COMPANION = "quasi-Cartan companion is not positive definite"


@pytest.mark.parametrize("command, error", [
    (["diagram", "class", "{}"], STAR_BREAKDOWN), (["theorem-a", "{}"], STAR_BREAKDOWN),
    (["verify-type", "{}"], STAR_COMPANION), (["verify-mutation", "{}", "1"], STAR_COMPANION)])
def test_every_class_command_names_the_inputs_vertices_one_based(tmp_path, capsys, command, error):
    # the class commands as diagram type does (test_diagram_type_refuses_the_affine_d4_star);
    # the verify commands build the star's companion (roots.companion_basis),
    # and name the vertices of a cycle (test_a_components_breakdown_names_the_inputs_vertices)
    path = _write(tmp_path, "star.dia", STAR_DIAGRAM)
    assert main([arg.format(path) for arg in command]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("command", [["verify-type", "{}"], ["verify-mutation", "{}", "1"]])
def test_a_components_breakdown_names_the_inputs_vertices(tmp_path, capsys, command):
    # a 4-cycle that is not cyclically oriented on vertices 3..6, beside an
    # oriented A2 on vertices 1 and 2: the component's 0-based vertex a is the
    # input's 1-based vertex a + 3
    path = _write(tmp_path, "cycle6.dia", "6\n1 2 1\n3 4 1\n4 5 1\n5 6 1\n3 6 1\n")
    assert main([arg.format(path) for arg in command]) == 1
    assert capsys.readouterr() == ("", "error: chordless cycle on vertices 3, 4, 5, 6 is not cyclically oriented\n")


def test_diagram_mutate_names_the_breakdown_one_based(tmp_path, capsys):
    path = _write(tmp_path, "triangle.dia", "3\n1 2 1\n2 3 1\n1 3 1\n")
    assert main(["diagram", "mutate", path, "2"]) == 1
    assert capsys.readouterr() == ("", (
        "error: mutation at 2 leaves finite type: mutation at 2: path 1->2->3 closed by a same-direction "
        "edge 1->3 (diagram is not of finite type)\n"))


@pytest.mark.parametrize("name, text, command", [
    # step 1 is not 2-finite, and would end the script with a fail report
    ("affine.mat", (DATA / "pipeline_not_two_finite.mat").read_text(), ["pipeline", "{}", "2,99"]),
    # mutation at 2 leaves finite type, and would exit 1 with its breakdown
    ("triangle.dia", "3\n1 2 1\n2 3 1\n1 3 1\n", ["diagram", "mutate", "{}", "2", "99"]),
    ("affine.mat", (DATA / "pipeline_not_two_finite.mat").read_text(), ["matrix", "mutate", "{}", "2", "99"]),
], ids=["pipeline", "diagram-mutate", "matrix-mutate"])
def test_a_vertex_list_is_refused_whole_before_the_first_step(tmp_path, capsys, name, text, command):
    path = _write(tmp_path, name, text)
    with pytest.raises(SystemExit) as err:
        main([path if arg == "{}" else arg for arg in command])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", "error: vertex 99 out of range 1..3\n")


@pytest.mark.parametrize("text, diagram_error, matrix_error", [
    ("2\n1 1 1\n", "self-loop at vertex 1", "expected 2 matrix rows, found 1"),
    ("3\n1 2 1\n2 1 1\n", "parallel edge between 2 and 1", "expected 3 matrix rows, found 2"),
    ("2\n1 2 0\n", "edge (1,2) has non-positive weight 0", "expected 2 matrix rows, found 1"),
])
def test_a_malformed_diagram_file_names_its_vertices_one_based(tmp_path, capsys, text, diagram_error, matrix_error):
    path = _write(tmp_path, "bad.dia", text)
    with pytest.raises(SystemExit) as err:
        main(["diagram", "cycles", path])
    assert err.value.code == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: neither a diagram ({diagram_error}) nor a matrix ({matrix_error})\n")


@pytest.mark.parametrize("text, argv, message", [
    ("3\n1 2 +\n2 3 -\n", ["1", "--in-set", "3"], "vertex 3 is not a neighbour of 1"),
    ("3\n1 2 +\n2 1 -\n", ["1"], "{}: duplicate signed edge (1, 2)"),
    ("3\n1 2 +\n2 3 -\n", ["1", "--in-set", "1"], "the switching set cannot contain the switching vertex"),
])
def test_switch_names_signed_graph_vertices_one_based(tmp_path, capsys, text, argv, message):
    path = _write(tmp_path, "graph.sg", text)
    with pytest.raises(SystemExit) as err:
        main(["switch", path, *argv])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message.format(path)}\n")


def test_diagram_cycles(tmp_path, capsys):
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["diagram", "cycles", path]) == 0
    assert capsys.readouterr().out == "cycle 1 2 3 4 weights 1 1 1 1 oriented yes\n"


def test_diagram_type_and_cycles_json(tmp_path, capsys):
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["diagram", "type", path, "--json"]) == 0
    assert capsys.readouterr().out == '{\n  "type": "D4"\n}\n'
    assert main(["diagram", "cycles", path, "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"cycles": [{"vertices": [1, 2, 3, 4], "weights": [1, 1, 1, 1], "oriented": True}]}
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# ------------------------------------------------------------ present / export


def test_present_full_matches_golden(tmp_path, capsys):
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["present", "full", path]) == 0
    assert capsys.readouterr().out == (DATA / "d4_cycle_full.pres").read_text()


def test_present_reduced_keeps_one_cycle_relation(tmp_path, capsys):
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["present", "reduced", path, "--json"]) == 0
    data = _json_out(capsys)
    tags = [rel["tag"] for rel in data["relations"]]
    assert tags.count("R3-reduced") == 1
    assert data["generators"] == 4


def test_present_ti_words(tmp_path, capsys):
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["present", "ti", path, "1"]) == 0
    assert capsys.readouterr().out == "t1 = s1\nt2 = s2\nt3 = s3\nt4 = s1 s4 s1\n"


def test_present_ti_json(tmp_path, capsys):
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["present", "ti", path, "1", "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"vertex": 1, "words": [[1], [2], [3], [1, 4, 1]]}
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_export_generic_fp_grammar(tmp_path, capsys):
    a2 = _write(tmp_path, "a2.mat", A2_MATRIX)
    assert main(["present", "full", a2]) == 0
    pres_path = _write(tmp_path, "a2.pres", capsys.readouterr().out)
    assert main(["export", pres_path, "--format", "generic-fp"]) == 0
    assert capsys.readouterr().out == (
        "F := FreeGroup(2);\n"
        "rels := [\n"
        "  (s1)^2,\n"
        "  (s2)^2,\n"
        "  (s1*s2)^3\n"
        "];\n"
    )
    # no relations: no line between the brackets
    empty = _write(tmp_path, "empty.pres", "generators 0\n")
    assert main(["export", empty, "--format", "generic-fp"]) == 0
    assert capsys.readouterr().out == "F := FreeGroup(0);\nrels := [\n];\n"


def test_export_native_round_trips(tmp_path, capsys):
    text = (DATA / "d4_cycle_full.pres").read_text()
    pres_path = _write(tmp_path, "cycle.pres", text)
    assert main(["export", pres_path]) == 0
    assert capsys.readouterr().out == text


# ------------------------------------------------------------ order / verify


def test_order_command_shape(tmp_path, capsys):
    pres_path = _write(tmp_path, "cycle.pres", (DATA / "d4_cycle_full.pres").read_text())
    assert main(["order", pres_path]) == 0
    data = _json_out(capsys)
    assert set(data) == {"order", "strategy", "cosets_defined", "verdict"}
    assert data["order"] == weyl_order("D4")
    assert data["strategy"] == "direct"
    assert data["cosets_defined"] >= data["order"]
    assert data["verdict"] == "pass"


def test_order_reads_an_odd_power_of_a_generator(tmp_path, capsys):
    pres_path = _write(tmp_path, "trivial.pres", "generators 2\n(s1)^2\n(s2)^2\n(s1 s2)^3\n(s2)^1\n")
    assert main(["order", pres_path]) == 0
    assert _json_out(capsys)["order"] == 1


def test_order_names_an_out_of_range_letter_in_file_syntax(tmp_path, capsys):
    pres_path = _write(tmp_path, "bad.pres", "generators 2\n(s1)^2\n(s2)^2\n(s1 s3)^2\n")
    with pytest.raises(SystemExit) as err:
        main(["order", pres_path])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", f"error: {pres_path}: generator s3 out of range in (s1 s3)^2\n")


def test_order_has_no_strategy_flag(tmp_path, capsys):
    # a tower's product of indices only bounds the order; order always enumerates exactly
    pres_path = _write(tmp_path, "cycle.pres", (DATA / "d4_cycle_full.pres").read_text())
    with pytest.raises(SystemExit) as err:
        main(["order", pres_path, "--strategy", "tower"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unrecognized arguments: --strategy tower\n"


def test_order_overflow_exit_code(tmp_path, capsys):
    pres_path = _write(tmp_path, "cycle.pres", (DATA / "d4_cycle_full.pres").read_text())
    assert main(["order", pres_path, "--cap", "10"]) == 1
    data = _json_out(capsys)
    assert data["order"] is None
    assert data["verdict"] == "overflow"


def test_order_cap_from_environment(tmp_path, capsys, monkeypatch):
    pres_path = _write(tmp_path, "cycle.pres", (DATA / "d4_cycle_full.pres").read_text())
    monkeypatch.setenv("CLUSTER_PRESENTS_CAP", "10")
    assert main(["order", pres_path]) == 1
    assert _json_out(capsys)["verdict"] == "overflow"
    # an explicit --cap wins over the environment
    assert main(["order", pres_path, "--cap", "100000"]) == 0
    assert _json_out(capsys)["verdict"] == "pass"


def test_order_rejects_bad_environment_cap(tmp_path, monkeypatch):
    pres_path = _write(tmp_path, "cycle.pres", (DATA / "d4_cycle_full.pres").read_text())
    monkeypatch.setenv("CLUSTER_PRESENTS_CAP", "ten")
    with pytest.raises(SystemExit) as err:
        main(["order", pres_path])
    assert err.value.code == 2


def test_environment_cap_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch):
    pres_path = _write(tmp_path, "cycle.pres", (DATA / "d4_cycle_full.pres").read_text())
    for value in ("0", "-3"):
        monkeypatch.setenv("CLUSTER_PRESENTS_CAP", value)
        _assert_usage_error(capsys, ["order", pres_path])


@pytest.mark.parametrize(
    "command",
    [
        ["order", "{pres}"],
        ["verify-mutation", "{mat}", "1"],
        ["verify-type", "{mat}"],
        ["theorem-a", "A3"],
        ["diagram", "class", "{mat}"],
        ["diagram", "type", "{mat}"],
    ],
)
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_is_a_usage_error(tmp_path, capsys, command, cap):
    files = {
        "{pres}": _write(tmp_path, "cycle.pres", (DATA / "d4_cycle_full.pres").read_text()),
        "{trivial}": _write(tmp_path, "trivial.pres", "generators 2\n(s1)^2\n(s2)^2\n(s1 s2)^3\n(s2)^1\n"),
        "{mat}": _write(tmp_path, "cycle.mat", CYCLE_MATRIX),
    }
    _assert_usage_error(capsys, [files.get(arg, arg) for arg in command] + ["--cap", cap])


def test_verify_mutation_pass(tmp_path, capsys):
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["verify-mutation", path, "1"]) == 0
    data = _json_out(capsys)
    assert data["verdict"] == "pass"
    assert data["order"] == data["mutated_order"] == weyl_order("D4")
    assert data["forward_homomorphism"] and data["inverse_homomorphism"]
    assert data["composition_identity"]
    assert data["vertex"] == 1


def test_verify_mutation_counts_both_enumerations(tmp_path, capsys):
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["verify-mutation", path, "1"]) == 0
    data = _json_out(capsys)
    diagram = diagram_of(load_matrix(CYCLE_MATRIX))
    basis = roots.companion_basis(diagram)
    sides = ((diagram, basis), (mutate_diagram(diagram, 0), roots.mutate_companion(basis, 0, diagram)))
    towers = [coset._tower(d.n, _relations(d)[1], DEFAULT_COSET_CAP, coset._side(d.n, [(range(d.n), d, b)])[1])
              for d, b in sides]
    assert data["strategy"] == "tower"
    assert data["cosets_defined"] == sum(defined for _, _, defined in towers)


def test_verify_mutation_overflow(tmp_path, capsys):
    # the 4-cycle's tower needs 8 live cosets at its first level
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["verify-mutation", path, "1", "--cap", "4"]) == 1
    data = _json_out(capsys)
    assert data["verdict"] == "overflow"
    assert data["cosets_defined"] >= 4  # the cap counts live cosets, each one defined


def test_verify_type(tmp_path, capsys):
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["verify-type", path]) == 0
    data = _json_out(capsys)
    assert data["type"] == "D4"
    assert data["order"] == data["expected_order"] == weyl_order("D4")
    assert data["verdict"] == "pass"
    assert data["strategy"] == "tower"
    assert data["lower_bound"] is True
    assert math.prod(level["index"] for level in data["tower"]) == data["order"]


def _full_with_relator_s1_s2(monkeypatch, only=None):
    """Certificates read full relations with the relator s1 s2 added (on the
    diagram only, if given) and reduced relations as they are, so the towers
    still reach |W| and only the lower bound can fail."""
    def relations(diagram):
        full, reduced = _relations(diagram)
        if only is None or diagram == only:
            full = [*full, Relation((0, 1), 1)]
        return full, reduced
    monkeypatch.setattr(coset, "_relations", relations)


def test_certificates_build_no_presentation(tmp_path, capsys, monkeypatch):
    # the certificates read presentation._relations as they stand, each
    # relation validated by Relation alone; only present and export wrap them
    def refused(self):
        raise AssertionError("a certificate built a Presentation")
    monkeypatch.setattr(Presentation, "__post_init__", refused)
    assert main(["theorem-a", "A5"]) == 0
    assert _json_out(capsys)["verdict"] == "pass"
    assert main(["verify-mutation", _write(tmp_path, "cycle.mat", CYCLE_MATRIX), "1"]) == 0
    assert _json_out(capsys)["verdict"] == "pass"


def test_verify_type_fails_an_added_relator_on_the_lower_bound(tmp_path, capsys, monkeypatch):
    _full_with_relator_s1_s2(monkeypatch)
    assert main(["verify-type", _write(tmp_path, "cycle.mat", CYCLE_MATRIX)]) == 1
    data = _json_out(capsys)
    assert (data["lower_bound"], data["verdict"]) == (False, "fail")


def test_verify_type_pass_needs_the_lower_bound(tmp_path, capsys, monkeypatch):
    # the simple roots of D4 are no companion basis of the 4-cycle: its cycle
    # relations fail on them, so the tower's order alone certifies nothing
    monkeypatch.setattr(coset, "companion_basis", lambda diagram: _carried_simple_roots(build_root_system("D4")))
    assert main(["verify-type", _write(tmp_path, "cycle.mat", CYCLE_MATRIX)]) == 1
    data = _json_out(capsys)
    assert data["order"] == data["expected_order"] == weyl_order("D4")
    assert (data["lower_bound"], data["verdict"]) == (False, "fail")


@pytest.mark.parametrize("label", ["A6", "B/C4", "D5", "E6", "F4", "G2"])
def test_theorem_a_fails_an_added_relator_on_the_lower_bound(capsys, monkeypatch, label):
    # theorem-a certifies the full presentation, the statement of Theorem A
    _full_with_relator_s1_s2(monkeypatch)
    assert main(["theorem-a", label]) == 1
    data = _json_out(capsys)
    assert data["verdict"] == "fail"
    assert all((m["lower_bound"], m["verdict"]) == (False, "fail") for m in data["results"]["members"])
    assert all(m["order"] == data["results"]["expected_order"] for m in data["results"]["members"])


@pytest.mark.parametrize("side", ["input", "mutated"])
def test_verify_mutation_fails_an_added_relator_on_either_lower_bound(tmp_path, capsys, monkeypatch, side):
    diagram = diagram_of(load_matrix(CYCLE_MATRIX))
    _full_with_relator_s1_s2(monkeypatch, diagram if side == "input" else mutate_diagram(diagram, 0))
    report = coset.verify_mutation_isomorphism(diagram, 0)
    assert report.order == report.mutated_order == weyl_order("D4")
    assert not report.faithful and not report.passed
    assert main(["verify-mutation", _write(tmp_path, "cycle.mat", CYCLE_MATRIX), "1"]) == 1
    assert _json_out(capsys)["verdict"] == "fail"


def test_theorem_a_certifies_the_whole_e7_class(capsys):
    assert main(["theorem-a", "E7"]) == 0
    data = _json_out(capsys)
    results = data["results"]
    assert data["verdict"] == "pass"
    assert results["class_size"] == results["checked"] == len(results["members"]) == 416
    for member in results["members"]:
        assert member["order"] == weyl_order("E7")
        assert member["lower_bound"] is True
        assert math.prod(level["index"] for level in member["tower"]) == member["order"]
        assert sorted(level["dropped"] for level in member["tower"]) == list(range(1, 8))


@pytest.mark.parametrize("label, command", [("E8", ["verify-mutation", "{}", "4"]), ("E7", ["verify-type", "{}"])])
def test_certificates_enumerate_no_mutation_class(tmp_path, capsys, monkeypatch, label, command):
    # the companion bases come from a search that stops at the standard tree
    def refuse(*args, **kwargs):
        raise AssertionError("a whole mutation class was enumerated")

    for module in ("cli", "roots", "diagram"):
        monkeypatch.setattr(f"cluster_presents.{module}.mutation_class", refuse, raising=False)
    rng = random.Random(7)
    matrix = dynkin.standard_exchange_matrix(label)
    for _ in range(10 if label == "E7" else 0):
        matrix = mutate_matrix(matrix, rng.randrange(matrix.n))
    path = _write(tmp_path, "input.mat", dump_matrix(matrix))
    assert main([path if arg == "{}" else arg for arg in command]) == 0
    assert _json_out(capsys)["verdict"] == "pass"


@pytest.mark.parametrize("command", [["verify-type", "{}"], ["theorem-a", "{}"], ["verify-mutation", "{}", "1"]])
def test_certifying_commands_refuse_a_huge_edgeless_diagram_at_once(tmp_path, capsys, command):
    # eight bytes naming a million vertices: refused before any pass over them
    path = _write(tmp_path, "huge.dia", "1000000\n")
    tracemalloc.start()
    started = time.monotonic()
    try:
        _assert_usage_error(capsys, [path if arg == "{}" else arg for arg in command])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - started < 5
    assert peak < 1_000_000


@pytest.mark.parametrize("command", [["verify-type", "{}"], ["verify-mutation", "{}", "1"], ["theorem-a", "{}"],
                                     ["diagram", "class", "{}"], ["diagram", "type", "{}"]])
def test_every_canonical_labeling_command_refuses_rank_eleven_with_one_line(tmp_path, capsys, command):
    # one check, one message, whichever command labels canonically
    path = _write(tmp_path, "a11.dia", "11\n" + "".join(f"{i} {i + 1} 1\n" for i in range(1, 11)))
    with pytest.raises(SystemExit) as err:
        main([path if arg == "{}" else arg for arg in command])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", "error: canonical form supports rank <= 10, not 11\n")


@pytest.mark.parametrize("which", ["full", "reduced", "ti"])
def test_present_refuses_a_huge_edgeless_diagram_at_once(tmp_path, capsys, which):
    # seven bytes naming 300,000 vertices: the rank is checked before the
    # validator, the n^2/2 braid relations or the n witness words run
    path = _write(tmp_path, "huge.dia", "300000\n")
    started = time.monotonic()
    _assert_usage_error(capsys, ["present", which, path] + ["1"] * (which == "ti"))
    assert time.monotonic() - started < 1
    with pytest.raises(ValueError, match="presentations support rank <= 1000, not 300000"):
        full_presentation(load_diagram("300000\n"))


@pytest.mark.parametrize("which", ["full", "reduced", "ti"])
def test_present_refuses_one_vertex_past_the_limit_with_the_librarys_line(tmp_path, capsys, which):
    with pytest.raises(ValueError) as exc:
        full_presentation(load_diagram("1001\n"))
    assert str(exc.value) == "presentations support rank <= 1000, not 1001"
    with pytest.raises(SystemExit) as err:
        main(["present", which, _write(tmp_path, "e1001.dia", "1001\n")] + ["1"] * (which == "ti"))
    assert err.value.code == 2
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


# ------------------------------------------------------------ theorem-a / pipeline


def test_theorem_a_by_type(capsys):
    assert main(["theorem-a", "A3"]) == 0
    data = _json_out(capsys)
    assert data["verdict"] == "pass"
    assert data["inputs"] == {"type": "A3"}
    assert data["results"]["type"] == "A3"
    assert data["results"]["expected_order"] == weyl_order("A3")
    assert data["results"]["class_size"] == 4
    assert data["results"]["checked"] == 4
    assert all(m["verdict"] == "pass" for m in data["results"]["members"])
    assert set(data) == {
        "tool_version",
        "format_version",
        "command",
        "inputs",
        "results",
        "verdict",
        "timings",
    }


def test_theorem_a_by_matrix_file_records_digest(tmp_path, capsys):
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    assert main(["theorem-a", path]) == 0
    data = _json_out(capsys)
    assert data["inputs"]["path"] == path
    assert len(data["inputs"]["sha256"]) == 64
    assert data["results"]["type"] == "D4"


def test_theorem_a_sampling_is_seed_deterministic(capsys):
    assert main(["theorem-a", "A5", "--sample", "3", "--seed", "11"]) == 0
    first = _json_out(capsys)
    assert main(["theorem-a", "A5", "--sample", "3", "--seed", "11"]) == 0
    second = _json_out(capsys)
    assert first["results"]["members"] == second["results"]["members"]
    assert first["results"]["checked"] == 3
    assert first["results"]["class_size"] == 19


def test_theorem_a_rejects_unknown_label():
    with pytest.raises(SystemExit) as err:
        main(["theorem-a", "Z9"])
    assert err.value.code == 2


@pytest.mark.parametrize("sample", ["x", "2.5", ""])
def test_theorem_a_rejects_non_integer_sample(capsys, sample):
    _assert_usage_error(capsys, ["theorem-a", "A3", "--sample", sample])


def test_theorem_a_rejects_negative_sample(capsys):
    _assert_usage_error(capsys, ["theorem-a", "A3", "--sample", "-1"])


def test_theorem_a_rejects_zero_sample(capsys):
    _assert_usage_error(capsys, ["theorem-a", "A3", "--sample", "0"])


@pytest.mark.parametrize(
    "command",
    [["diagram", "class", "{mat}"], ["diagram", "type", "{mat}"], ["verify-type", "{mat}"],
     ["theorem-a", "{mat}"], ["theorem-a", "A11"], ["verify-mutation", "{mat}", "1"]],
)
def test_class_commands_reject_rank_above_ten(tmp_path, capsys, command):
    rows = [[(j == i + 1) - (j == i - 1) for j in range(11)] for i in range(11)]
    path = _write(tmp_path, "a11.mat", "11\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    _assert_usage_error(capsys, [path if arg == "{mat}" else arg for arg in command])


def test_pipeline_basic_invariants(tmp_path, capsys):
    path = _write(tmp_path, "a3.mat", A3_MATRIX)
    assert main(["pipeline", path, "2,1,2"]) == 0
    data = _json_out(capsys)
    assert data["verdict"] == "pass"
    steps = data["results"]["steps"]
    assert [s["vertex"] for s in steps] == [2, 1, 2]
    for s in steps:
        assert s["two_finite"] and s["diagram_commutes"] and s["involution"]
    assert data["results"]["final_matrix"]["n"] == 3


def test_pipeline_with_companion_tracking(tmp_path, capsys):
    path = _write(tmp_path, "a3.mat", A3_MATRIX)
    assert main(["pipeline", path, "1,3,2", "--type", "A3"]) == 0
    data = _json_out(capsys)
    assert data["verdict"] == "pass"
    for s in data["results"]["steps"]:
        assert s["companion_ok"] and s["companion_restored"]
    assert len(data["results"]["final_basis"]) == 3


def test_pipeline_replays_the_seed_path_to_a_mutated_seed(tmp_path, capsys):
    # A3's seed mutated at 1 and 3: the basis is carried two steps from the seed
    path = _write(tmp_path, "a3m.mat", "3\n0 -1 0\n1 0 -1\n0 1 0\n")
    assert cli._seed_basis_path(load_matrix((tmp_path / "a3m.mat").read_text()), "A3") == [0, 2]
    assert main(["pipeline", path, "2,1", "--type", "A3"]) == 0
    data = _json_out(capsys)
    checks = {"two_finite": True, "diagram_commutes": True, "involution": True,
              "companion_ok": True, "companion_restored": True}
    assert (data["results"], data["verdict"]) == ({
        "steps": [{"step": 1, "vertex": 2, **checks}, {"step": 2, "vertex": 1, **checks}],
        "final_matrix": {"n": 3, "rows": [[0, -1, 1], [1, 0, 0], [-1, 0, 0]]},
        "final_diagram": {"n": 3, "edges": [[1, 3, 1], [2, 1, 1]]},
        "final_basis": [[1, 0, 0], [0, 1, 1], [-1, -1, 0]],
    }, "pass")


def test_pipeline_stops_where_the_diagram_breaks_down(tmp_path, capsys):
    # the acyclic triangle 1 -> 2 -> 3, 1 -> 3: mutating at 2 meets the edge
    # 1 -> 3; the report's diagram_error names the vertices 1-based, as the script does
    path = _write(tmp_path, "acyclic.mat", "3\n0 1 1\n-1 0 1\n-1 -1 0\n")
    assert main(["pipeline", path, "2,1"]) == 1
    data = _json_out(capsys)
    assert (data["results"], data["verdict"]) == ({
        "steps": [{"step": 1, "vertex": 2, "diagram_error": (
            "mutation at 2: path 1->2->3 closed by a same-direction edge 1->3 (diagram is not of finite type)")}],
        "final_matrix": {"n": 3, "rows": [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]},
        "final_diagram": {"n": 3, "edges": [[1, 2, 1], [1, 3, 1], [2, 3, 1]]},
        "failed_step": 1,
    }, "fail")


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(tmp_path):
    # the A7 class prints about 113 kB, more than a pipe holds, so the command
    # is still writing when the reader has taken one line and gone
    path = _write(tmp_path, "a7.dia", "7\n" + "".join(f"{i} {i + 1} 1\n" for i in range(1, 7)))
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "cluster_presents.cli", "diagram", "class", path, "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("command", [["diagram", "cycles"], ["present", "full"]])
def test_an_artifact_command_started_with_stdout_closed_exits_quietly(tmp_path, command):
    # as `>&-` does: fd 1 is closed, so sys.stdout is None in the child
    path = _write(tmp_path, "a6.dia", "6\n" + "".join(f"{i} {i + 1} 1\n" for i in range(1, 6)))
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "cluster_presents.cli", *command, path]
    proc = subprocess.run(argv, stderr=subprocess.PIPE, env=env, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_pipeline_stops_after_a_step_that_is_not_two_finite(tmp_path, capsys):
    # two weight-2 edges through vertex 2: the matrix gains a weight-4 entry
    # that the diagram rule does not, and the step after it is not run
    path = _write(tmp_path, "affine.mat", "3\n0 -2 0\n1 0 -2\n0 1 0\n")
    assert main(["pipeline", path, "2,1"]) == 1
    data = _json_out(capsys)
    assert (data["results"], data["verdict"]) == ({
        "steps": [{"step": 1, "vertex": 2, "two_finite": False, "diagram_commutes": False, "involution": True}],
        "final_matrix": {"n": 3, "rows": [[0, 2, -4], [-1, 0, 2], [1, -1, 0]]},
        "final_diagram": {"n": 3, "edges": [[1, 2, 2], [2, 3, 2], [3, 1, 2]]},
        "failed_step": 1,
    }, "fail")


def _without_timings(out):
    """A report's text with its timings, the one field that varies from run to
    run, dropped: still JSON, and every other byte as printed."""
    text, count = re.subn(r',\n  "timings": \{\n    "total_seconds": [0-9.e+-]+\n  \}\n\}\n\Z', "\n}\n", out)
    assert count == 1, out
    return text


# (name of the input and golden report in tests/data, script, flags).  The E7
# input is the standard seed after a 4-step walk drawn by random.Random(7), and
# its script the next 30 draws; the D4 script is 30 draws of random.Random(4).
PIPELINE_GOLDENS = [
    ("pipeline_e7_walk", "1,1,7,5,1,3,5,1,5,2,1,1,4,4,1,2,1,5,4,1,7,5,1,2,6,6,5,1,5,5", ["--type", "E7"]),
    ("pipeline_d4_cycle", "2,3,1,4,4,2,1,1,1,4,3,1,2,3,3,2,1,3,2,1,3,3,2,2,3,3,3,1,3,4", []),
    ("pipeline_not_two_finite", "2,1", []),
]


@pytest.mark.parametrize("name, script, flags", PIPELINE_GOLDENS, ids=[g[0] for g in PIPELINE_GOLDENS])
def test_pipeline_reports_match_their_goldens(tmp_path, capsys, monkeypatch, name, script, flags):
    # run from tmp_path on a relative path, so the report's path and command are the golden's
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.mat").write_text((DATA / f"{name}.mat").read_text())
    code = main(["pipeline", f"{name}.mat", script, *flags])
    golden = (DATA / f"{name}.json").read_text()
    assert _without_timings(capsys.readouterr().out) == golden
    assert code == (0 if json.loads(golden)["verdict"] == "pass" else 1)


# (golden report in tests/data, command).  The input is CI's B/C3 + G2 seed
# mutated at 2, 4 and 3, whose components have 9 and 6 positive roots.
CERTIFICATE_GOLDENS = [
    ("verify_type_bc3g2m", ["verify-type", "certify_bc3g2m.mat"]),
    ("verify_mutation_bc3g2m_2", ["verify-mutation", "certify_bc3g2m.mat", "2"]),
    ("verify_mutation_bc3g2m_4", ["verify-mutation", "certify_bc3g2m.mat", "4"]),
    ("theorem_a_bc3", ["theorem-a", "B/C3"]),
]


@pytest.mark.parametrize("name, argv", CERTIFICATE_GOLDENS, ids=[g[0] for g in CERTIFICATE_GOLDENS])
def test_certificate_reports_match_their_goldens(tmp_path, capsys, monkeypatch, name, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "certify_bc3g2m.mat").write_text((DATA / "certify_bc3g2m.mat").read_text())
    assert main(argv) == 0
    out, err = capsys.readouterr()
    golden = (DATA / f"{name}.json").read_text()
    assert (_without_timings(out) if argv[0] == "theorem-a" else out, err) == (golden, "")


def _reference_seed_path(target, label):
    """Breadth-first search over ExchangeMatrix objects from the standard seed, by
    mutate_matrix in vertex order: the path _seed_basis_path must return."""
    seed = dynkin.standard_exchange_matrix(label)
    if target == seed:
        return []
    parents = {seed: None}
    queue = [seed]
    while queue:
        nxt = []
        for current in queue:
            for k in range(current.n):
                child = mutate_matrix(current, k)
                if child in parents:
                    continue
                parents[child] = (current, k)
                if child == target:
                    path = []
                    while parents[child] is not None:
                        child, step = parents[child]
                        path.append(step)
                    return path[::-1]
                nxt.append(child)
        queue = nxt
    return None


@pytest.mark.parametrize("label", ["A5", "D5", "E6", "B/C4"])
def test_seed_basis_path_is_the_reference_search(label):
    rng = random.Random(17)
    for _ in range(6):
        target = dynkin.standard_exchange_matrix(label)
        for _ in range(rng.randint(0, 8)):
            target = mutate_matrix(target, rng.randrange(target.n))
        path = cli._seed_basis_path(target, label)
        assert path == _reference_seed_path(target, label)
        replayed = dynkin.standard_exchange_matrix(label)
        for k in path:
            replayed = mutate_matrix(replayed, k)
        assert replayed == target


def _pipeline_error(tmp_path, capsys, matrix, label):
    path = _write(tmp_path, "seed.mat", dump_matrix(matrix))
    with pytest.raises(SystemExit) as err:
        main(["pipeline", path, "1", "--type", label])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    return captured.err


def test_pipeline_refuses_a_matrix_of_another_type(tmp_path, capsys):
    # the count pins how far, and in which order, the labeled-seed search runs
    err = _pipeline_error(tmp_path, capsys, dynkin.standard_exchange_matrix("A5"), "D5")
    assert err == "error: matrix is not reachable from the standard D5 seed (searched 2184 seeds)\n"


def test_pipeline_refuses_a_type_of_another_rank(tmp_path, capsys):
    err = _pipeline_error(tmp_path, capsys, dynkin.standard_exchange_matrix("E7"), "E6")
    assert err == "error: type E6 has rank 6, matrix has rank 7\n"


@pytest.mark.parametrize("argv, message", [
    (["pipeline", "{mat}", "1", "--type", "A400"], "type A400 has rank 400, matrix has rank 2"),
    (["companion", "check", "A400", "{basis}", "{mat}"], "vector (1, 0) has wrong length for rank 400"),
    (["companion", "mutate", "A400", "{basis}", "{mat}", "1"], "vector (1, 0) has wrong length for rank 400"),
    (["signed-graph", "A400", "{basis}"], "vector (1, 0) has wrong length for rank 400"),
], ids=["pipeline", "companion-check", "companion-mutate", "signed-graph"])
def test_a_rank_mismatch_is_refused_before_the_root_system_is_built(tmp_path, capsys, monkeypatch, argv, message):
    # the root system of A400 takes minutes to build: the ranks are compared first
    def refuse(label):
        raise AssertionError(f"built the root system of {label}")

    monkeypatch.setattr(cli, "build_root_system", refuse)
    files = {"mat": _write(tmp_path, "a2.mat", A2_MATRIX), "basis": _write(tmp_path, "a2.basis", "1 0\n0 1\n")}
    with pytest.raises(SystemExit) as err:
        main([arg.format(**files) for arg in argv])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_order_refuses_a_huge_generator_count_at_once(tmp_path, capsys):
    # 20 million generators and one involution: refused at s2, nothing walked past it
    path = _write(tmp_path, "big.pres", "generators 20000000\n(s1)^2\n")
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            main(["order", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == 2
    assert capsys.readouterr() == ("", f"error: {path}: missing involution relation for s2\n")
    assert peak < 1_000_000


@pytest.mark.parametrize("command", ["order", "export"])
@pytest.mark.parametrize("relations, relation", [
    ("(s1 s2)^99999999999\n", "(s1 s2)^99999999999"),
    ("(s1 s2)^3\n(s2)^99999999999\n", "(s2)^99999999999"),
])
def test_presentation_commands_refuse_a_huge_exponent_at_once(tmp_path, capsys, command, relations, relation):
    # a relator of 10^11 letters or more, refused before anything expands it
    path = _write(tmp_path, "huge.pres", "generators 2\n(s1)^2\n(s2)^2\n" + relations)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            main([command, path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == 2
    assert capsys.readouterr() == ("", f"error: {path}: relation {relation} expands to more than 100000 letters\n")
    assert peak < 1_000_000


@pytest.mark.parametrize("command", ["order", "export"])
def test_presentation_commands_refuse_many_long_relators_at_once(tmp_path, capsys, command):
    # 2,000 relators of 100,000 letters: 200 M letters, 1.6 GB expanded
    path = _write(tmp_path, "long.pres", "generators 2\n(s1)^2\n(s2)^2\n" + "(s1 s2)^50000\n" * 2000)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            main([command, path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == 2
    assert capsys.readouterr() == ("", f"error: {path}: relations expand to more than 20000000 letters in all\n")
    assert peak < 2_000_000


def test_pipeline_bad_script(tmp_path):
    path = _write(tmp_path, "a3.mat", A3_MATRIX)
    with pytest.raises(SystemExit) as err:
        main(["pipeline", path, "1;2"])
    assert err.value.code == 2


@pytest.mark.parametrize("script", ["1,,2", "1,2,", ",1", ",", "1, ,2", "0_1", "2,0_3", "_1"])
def test_pipeline_refuses_empty_tokens_and_digit_separators(tmp_path, script):
    # int() reads 0_1 as 1; an empty token is no vertex
    path = _write(tmp_path, "a3.mat", A3_MATRIX)
    code, out, err = _run(["pipeline", path, script])
    assert (code, out, err) == (2, "", f"error: bad mutation script {script!r}; expected comma-separated vertices\n")


def test_pipeline_runs_an_empty_script_and_checks_the_input_basis(tmp_path, capsys, monkeypatch):
    checked = []
    check = cli.is_companion_basis
    monkeypatch.setattr(cli, "is_companion_basis", lambda basis, matrix: checked.append(matrix) or check(basis, matrix))
    path = _write(tmp_path, "a3.mat", A3_MATRIX)
    assert main(["pipeline", path, "", "--type", "A3"]) == 0
    data = _json_out(capsys)
    assert (data["results"]["steps"], data["results"]["final_basis"]) == ([], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert [m.entries for m in checked] == [load_matrix(A3_MATRIX).entries]
    assert main(["pipeline", path, " 2 , 1 "]) == 0  # blanks around a vertex are read as before
    assert [s["vertex"] for s in _json_out(capsys)["results"]["steps"]] == [2, 1]


# ------------------------------------------------------------ roots / companion


def test_roots_build_counts(capsys):
    assert main(["roots", "build", "A2", "--json"]) == 0
    data = _json_out(capsys)
    assert data["type"] == "A2"
    assert data["count"] == 6
    assert len(data["roots"]) == 6


def test_roots_build_rejects_bad_type():
    with pytest.raises(SystemExit) as err:
        main(["roots", "build", "Q5"])
    assert err.value.code == 2


def test_companion_check_pass_and_fail(tmp_path, capsys):
    basis = _write(tmp_path, "a3.basis", A3_SIMPLE_BASIS)
    mat = _write(tmp_path, "a3.mat", A3_MATRIX)
    assert main(["companion", "check", "A3", basis, mat]) == 0
    data = _json_out(capsys)
    assert data == {"ok": True, "reason": None, "verdict": "pass"}
    bad = _write(tmp_path, "bad.basis", "1 0 0\n1 0 0\n0 0 1\n")
    assert main(["companion", "check", "A3", bad, mat]) == 1
    data = _json_out(capsys)
    assert data["ok"] is False
    assert "determinant" in data["reason"]


def test_companion_check_names_the_root_system_on_a_rank_mismatch(tmp_path, capsys):
    basis = _write(tmp_path, "b.basis", "1 0 0\n0 1 0\n")
    mat = _write(tmp_path, "a2.mat", A2_MATRIX)
    with pytest.raises(SystemExit) as err:
        main(["companion", "check", "A3", basis, mat])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", "error: rank mismatch: basis of 2 vectors in A3 (rank 3) against a 2 x 2 matrix\n")


def test_companion_mutate_inward(tmp_path, capsys):
    basis = _write(tmp_path, "a2.basis", "1 0\n0 1\n")
    mat = _write(tmp_path, "a2.mat", A2_MATRIX)
    assert main(["companion", "mutate", "A2", basis, mat, "2"]) == 0
    assert capsys.readouterr().out == "1 1\n0 1\n"


def test_companion_mutate_outward_inverts(tmp_path, capsys):
    mat = _write(tmp_path, "a2.mat", A2_MATRIX)
    mutated_basis = _write(tmp_path, "mut.basis", "1 1\n0 1\n")
    mutated_mat = _write(tmp_path, "a2mut.mat", "2\n0 -1\n1 0\n")
    assert main(["companion", "mutate", "A2", mutated_basis, mutated_mat, "2", "--outward"]) == 0
    assert capsys.readouterr().out == "1 0\n0 1\n"
    assert mat  # the forward file is exercised by test_companion_mutate_inward


def test_signed_graph_command(tmp_path, capsys):
    basis = _write(tmp_path, "a3.basis", A3_SIMPLE_BASIS)
    assert main(["signed-graph", "A3", basis]) == 0
    assert capsys.readouterr().out == "3\n1 2 -\n2 3 -\n"


def test_switch_command(tmp_path, capsys):
    graph = _write(tmp_path, "a3.sg", "3\n1 2 -\n2 3 -\n")
    assert main(["switch", graph, "2", "--in-set", "1"]) == 0
    assert capsys.readouterr().out == "3\n1 2 +\n1 3 -\n2 3 -\n"


def test_switch_rejects_non_neighbour(tmp_path):
    graph = _write(tmp_path, "a3.sg", "3\n1 2 -\n2 3 -\n")
    with pytest.raises(SystemExit) as err:
        main(["switch", graph, "1", "--in-set", "3"])
    assert err.value.code == 2


# ------------------------------------------------------------ parser behaviour


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_cached_parser_answers_as_a_fresh_one(tmp_path):
    # the parser is built once per process; each command, run on the reused
    # parser after the others, prints what it prints on a freshly built one
    path = _write(tmp_path, "cycle.mat", CYCLE_MATRIX)
    commands = [["present", "full", path], ["present", "reduced", path],
                ["theorem-a", "A3", "--cap", "0"], ["--version"], ["theorem-a", "A3"]]

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        if text.startswith("{"):  # a report: all but its wall-clock timings
            report = json.loads(text)
            report.pop("timings", None)
            text = json.dumps(report)
        return code, text, err.getvalue()

    reused = [run(argv) for argv in commands]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in commands:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0]
    assert reused[0][1] != reused[1][1]


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# ------------------------------------------------------------ golden verdict reports

CYCLE_COMPANION_BASIS = "1 1 1 0\n-1 0 0 0\n0 -1 0 0\n0 0 0 1\n"

# The D4 cycle's tower: each level's dropped generator and index.
D4_TOWER = (
    '  "tower": [\n    {\n      "dropped": 4,\n      "index": 8\n    },\n    {\n      "dropped": 3,\n      "index": 4\n    },\n'
    '    {\n      "dropped": 2,\n      "index": 3\n    },\n    {\n      "dropped": 1,\n      "index": 2\n    }\n  ],\n'
)


def _golden_files(tmp_path):
    return {
        "{pres}": _write(tmp_path, "cycle.pres", (DATA / "d4_cycle_full.pres").read_text()),
        "{trivial}": _write(tmp_path, "trivial.pres", "generators 2\n(s1)^2\n(s2)^2\n(s1 s2)^3\n(s2)^1\n"),
        "{mat}": _write(tmp_path, "cycle.mat", CYCLE_MATRIX),
        "{basis}": _write(tmp_path, "cycle.basis", CYCLE_COMPANION_BASIS),
        "{simple}": _write(tmp_path, "simple.basis", "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"),
        "{a1a1}": _write(tmp_path, "a1a1.mat", "2\n0 0\n0 0\n"),
        "{a2a1}": _write(tmp_path, "a2a1.mat", "3\n0 1 0\n-1 0 0\n0 0 0\n"),
        "{bc4}": _write(tmp_path, "bc4.dia", "4\n1 4 1\n2 1 1\n3 2 2\n"),
    }


@pytest.mark.parametrize(
    "command, code, stdout",
    [
        (["order", "{pres}"], 0,
         '{\n  "order": 192,\n  "strategy": "direct",\n  "cosets_defined": 360,\n  "verdict": "pass"\n}\n'),
        # a tower over this trivial group bounds its order by 2
        (["order", "{trivial}"], 0,
         '{\n  "order": 1,\n  "strategy": "direct",\n  "cosets_defined": 6,\n  "verdict": "pass"\n}\n'),
        (["order", "{pres}", "--cap", "10"], 1,
         '{\n  "order": null,\n  "strategy": "direct",\n  "cosets_defined": 10,\n  "verdict": "overflow"\n}\n'),
        (["verify-type", "{mat}"], 0,
         '{\n  "order": 192,\n  "strategy": "tower",\n  "cosets_defined": 21,\n' + D4_TOWER + '  "type": "D4",\n'
         '  "expected_order": 192,\n  "lower_bound": true,\n  "verdict": "pass"\n}\n'),
        (["verify-type", "{mat}", "--cap", "4"], 1,
         '{\n  "order": null,\n  "strategy": "tower",\n  "cosets_defined": 4,\n  "tower": [],\n  "type": "D4",\n'
         '  "lower_bound": true,\n  "verdict": "overflow"\n}\n'),
        (["verify-mutation", "{mat}", "1"], 0,
         '{\n  "order": 192,\n  "mutated_order": 192,\n  "strategy": "tower",\n  "cosets_defined": 38,\n'
         '  "vertex": 1,\n  "forward_homomorphism": true,\n  "inverse_homomorphism": true,\n'
         '  "composition_identity": true,\n  "verdict": "pass"\n}\n'),
        (["verify-mutation", "{mat}", "1", "--cap", "4"], 1,
         '{\n  "order": null,\n  "strategy": "tower",\n  "cosets_defined": 4,\n  "verdict": "overflow"\n}\n'),
        (["companion", "check", "D4", "{basis}", "{mat}"], 0,
         '{\n  "ok": true,\n  "reason": null,\n  "verdict": "pass"\n}\n'),
        (["companion", "check", "D4", "{simple}", "{mat}"], 1,
         '{\n  "ok": false,\n  "reason": "companion condition fails at (1,4): |0| != |-1|",\n'
         '  "verdict": "fail"\n}\n'),
        # disconnected: the components' types joined by "+", |W| their product
        (["verify-type", "{a1a1}"], 0,
         '{\n  "order": 4,\n  "strategy": "tower",\n  "cosets_defined": 4,\n  "tower": [\n    {\n      "dropped": 2,\n'
         '      "index": 2\n    },\n    {\n      "dropped": 1,\n      "index": 2\n    }\n  ],\n  "type": "A1+A1",\n'
         '  "expected_order": 4,\n  "lower_bound": true,\n  "verdict": "pass"\n}\n'),
        (["verify-type", "{a2a1}"], 0,
         '{\n  "order": 12,\n  "strategy": "tower",\n  "cosets_defined": 7,\n  "tower": [\n    {\n      "dropped": 3,\n'
         '      "index": 2\n    },\n    {\n      "dropped": 2,\n      "index": 3\n    },\n    {\n      "dropped": 1,\n'
         '      "index": 2\n    }\n  ],\n  "type": "A2+A1",\n  "expected_order": 12,\n  "lower_bound": true,\n'
         '  "verdict": "pass"\n}\n'),
        # the B/C4 tree's own tower completes in 20 cosets under a cap of 8; the
        # side mutated at 2 overflows, and the report counts both sides' cosets
        (["verify-mutation", "{bc4}", "2", "--cap", "8"], 1,
         '{\n  "order": null,\n  "strategy": "tower",\n  "cosets_defined": 36,\n  "verdict": "overflow"\n}\n'),
    ],
)
def test_verdict_reports_are_pinned(tmp_path, capsys, command, code, stdout):
    files = _golden_files(tmp_path)
    assert main([files.get(arg, arg) for arg in command]) == code
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""


@pytest.mark.parametrize(
    "text, vertex, stdout",
    [
        ("2\n0 0\n0 0\n", "1",
         '{\n  "order": 4,\n  "mutated_order": 4,\n  "strategy": "tower",\n  "cosets_defined": 8,\n'
         '  "vertex": 1,\n  "forward_homomorphism": true,\n  "inverse_homomorphism": true,\n'
         '  "composition_identity": true,\n  "verdict": "pass"\n}\n'),
        ("3\n0 1 0\n-1 0 0\n0 0 0\n", "3",
         '{\n  "order": 12,\n  "mutated_order": 12,\n  "strategy": "tower",\n  "cosets_defined": 14,\n'
         '  "vertex": 3,\n  "forward_homomorphism": true,\n  "inverse_homomorphism": true,\n'
         '  "composition_identity": true,\n  "verdict": "pass"\n}\n'),
    ],
)
def test_disconnected_verify_mutation_reports_are_pinned(tmp_path, capsys, text, vertex, stdout):
    # A1+A1 and A2+A1: one reflection representation, the components'
    # companion matrices as diagonal blocks of one pairing matrix
    assert main(["verify-mutation", _write(tmp_path, "in.mat", text), vertex]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (stdout, "")


def test_verify_type_certifies_an_edgeless_diagram_by_components(tmp_path, capsys):
    assert main(["verify-type", _write(tmp_path, "ten.dia", "10\n")]) == 0
    data = _json_out(capsys)
    assert (data["type"], data["order"], data["expected_order"]) == ("+".join(["A1"] * 10), 1024, 1024)
    assert data["verdict"] == "pass"
    # one vertex more is beyond the canonical labeling, refused as before
    with pytest.raises(SystemExit) as err:
        main(["verify-type", _write(tmp_path, "eleven.dia", "11\n")])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", "error: canonical form supports rank <= 10, not 11\n")


@pytest.mark.parametrize("label, vertex, bound", [("E6", "1", 1_000), ("E7", "4", 5_000), ("A2+A1", "1", 24)])
def test_verify_mutation_enumerates_no_regular_representation(tmp_path, capsys, label, vertex, bound):
    # |W(E6)| = 51,840 and |W(E7)| = 2,903,040: a regular representation of
    # either side would define at least that many cosets.  Every check runs on
    # the companion matrices, so no permutation representation is built, not
    # even for the disconnected A2+A1; the package has none to build.
    for name in ("CosetTable", "coset_enumerate", "PermutationRep", "perm_rep", "evaluate_word", "check_homomorphism"):
        assert not hasattr(coset, name), name
    if label == "A2+A1":
        text, order = "3\n0 1 0\n-1 0 0\n0 0 0\n", 12
    else:
        text, order = dump_matrix(dynkin.standard_exchange_matrix(label)), weyl_order(label)
    assert main(["verify-mutation", _write(tmp_path, "in.mat", text), vertex]) == 0
    data = _json_out(capsys)
    assert data["verdict"] == "pass"
    assert data["order"] == data["mutated_order"] == order
    assert (data["strategy"], data["vertex"]) == ("tower", int(vertex))
    assert data["cosets_defined"] < bound


# ------------------------------------------------------------ malformed input

CYCLE_DIAGRAM = "4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n"
A3_SIGNED_GRAPH = "3\n1 2 -\n2 3 -\n"

# The commands that read each kind of file: "{}" is the file under test,
# "{mat}" and "{basis}" the valid D4 cycle matrix and its companion basis.
MATRIX_ONLY_COMMANDS = [
    ["matrix", "mutate", "{}", "1"],
    ["diagram", "of", "{}"],
    ["pipeline", "{}", "1,2"],
    ["pipeline", "{}", "1", "--type", "D4"],
    ["companion", "check", "D4", "{basis}", "{}"],
    ["companion", "mutate", "D4", "{basis}", "{}", "1"],
]
DIAGRAM_LIKE_COMMANDS = [
    ["diagram", "mutate", "{}", "1"],
    ["diagram", "class", "{}"],
    ["diagram", "type", "{}"],
    ["diagram", "cycles", "{}"],
    ["present", "full", "{}"],
    ["present", "reduced", "{}"],
    ["present", "ti", "{}", "1"],
    ["verify-mutation", "{}", "1"],
    ["verify-type", "{}"],
    ["theorem-a", "{}"],
]
COMMANDS = {
    "matrix": MATRIX_ONLY_COMMANDS + DIAGRAM_LIKE_COMMANDS,
    "diagram": DIAGRAM_LIKE_COMMANDS,
    "presentation": [["order", "{}"], ["export", "{}"]],
    "basis": [
        ["companion", "check", "D4", "{}", "{mat}"],
        ["companion", "mutate", "D4", "{}", "{mat}", "1"],
        ["signed-graph", "D4", "{}"],
    ],
    "signed graph": [["switch", "{}", "2", "--in-set", "1"]],
}
LOADERS = {
    "matrix": (load_matrix,),
    "diagram": (load_diagram, load_matrix),  # the diagram commands take a matrix too
    "presentation": (load_presentation,),
    "basis": (load_basis,),
    "signed graph": (load_signed_graph,),
}
FIXTURES = {
    "matrix": [CYCLE_MATRIX, '{"n": 4, "rows": [[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]]}'],
    "diagram": [CYCLE_DIAGRAM, '{"n": 4, "edges": [[1, 2, 1], [2, 3, 1], [3, 4, 1], [4, 1, 1]]}'],
    "presentation": [
        (DATA / "d4_cycle_full.pres").read_text(),
        '{"generators": 2, "relations": [{"word": [1], "exponent": 2}, {"word": [2], "exponent": 2},'
        ' {"word": [1, 2], "exponent": 3, "tag": "R2"}]}',
    ],
    "basis": [CYCLE_COMPANION_BASIS],
    "signed graph": [A3_SIGNED_GRAPH],
}
NUMBERS = ["0", "1", "-1", "2", "-2", "3", "4", "5", "7", "12"]
JUNK = ["x", "-", "+", "s9", "1.5", "[", "]", "{", "}", ",", '"n"', "null", "#"]


def _run(argv):
    """(exit code, stdout, stderr) of one CLI run; an escaping exception is
    returned as its name in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any other exception is a failure to report
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _one_error_line(stderr):
    lines = stderr.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ") and stderr.endswith("\n")


def _corruptions(text, rng, count):
    """Seeded copies of `text` with one to three tokens deleted, duplicated or
    replaced; most replacements are numbers, which keep more copies well-formed."""
    tokens = re.findall(r"-?\w+|\s+|.", text)
    spots = [i for i, tok in enumerate(tokens) if not tok.isspace()]
    for _ in range(count):
        copy = list(tokens)
        for i in sorted(rng.sample(spots, rng.choice((1, 1, 2, 3))), reverse=True):
            action = rng.choice(("delete", "duplicate", "replace", "replace", "replace"))
            if action == "delete":
                del copy[i]
            elif action == "duplicate":
                copy.insert(i, copy[i] + rng.choice(("", " ", "\n")))
            else:
                copy[i] = rng.choice(NUMBERS if rng.random() < 0.7 else JUNK)
        yield "".join(copy)


def _loads(loaders, text):
    for loader in loaders:
        try:
            loader(text)
            return True
        except FormatError:
            pass
    return False


def _bad_outcome(code, out, err, malformed):
    """Why a run broke the CLI's error contract, or None.

    A malformed file exits 2 with one `error:` line and no output.  A
    well-formed one either succeeds (exit 0), prints a verdict report (exit
    1), or fails with one `error:` line, no output and exit 1 or 2."""
    if not isinstance(code, int) or isinstance(code, bool):
        return f"escaped: {code}"
    if malformed:
        ok = code == 2 and out == "" and _one_error_line(err)
    elif code == 0 or out:
        ok = code in (0, 1) and err == ""
    else:
        ok = code in (1, 2) and _one_error_line(err)
    return None if ok else f"exit {code}, stdout {out[:80]!r}, stderr {err!r}"


@pytest.mark.parametrize(
    "kind, index", [(kind, i) for kind, texts in FIXTURES.items() for i in range(len(texts))]
)
def test_corrupted_inputs_end_in_one_error_line(tmp_path, monkeypatch, kind, index):
    # a small coset cap keeps well-formed infinite presentations short
    monkeypatch.setenv("CLUSTER_PRESENTS_CAP", "2000")
    files = {
        "{mat}": _write(tmp_path, "cycle.mat", CYCLE_MATRIX),
        "{basis}": _write(tmp_path, "cycle.basis", CYCLE_COMPANION_BASIS),
    }
    rng = random.Random(f"{kind}-{index}")
    problems = []
    for number, text in enumerate(_corruptions(FIXTURES[kind][index], rng, 30)):
        files["{}"] = _write(tmp_path, f"case{number}", text)
        for command in COMMANDS[kind]:
            loaders = LOADERS["diagram"] if command in DIAGRAM_LIKE_COMMANDS else LOADERS[kind]
            argv = [files.get(arg, arg) for arg in command]
            why = _bad_outcome(*_run(argv), not _loads(loaders, text))
            if why:
                problems.append(f"{command[:2]} on {text!r}: {why}")
    assert not problems, "\n".join(problems[:20])


def test_random_diagrams_end_in_output_or_one_error_line(tmp_path, monkeypatch):
    # well-formed diagrams of every kind: finite type or not, disconnected,
    # with edges heavier than any bond order
    monkeypatch.setenv("CLUSTER_PRESENTS_CAP", "2000")
    rng = random.Random(29)
    problems = []
    for number in range(40):
        n = rng.randint(1, 5)
        edges = [(i, j) if rng.random() < 0.5 else (j, i)
                 for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5]
        text = f"{n}\n" + "".join(f"{i} {j} {rng.choice((1, 1, 1, 2, 2, 3, 4, 7))}\n" for i, j in edges)
        path = _write(tmp_path, f"random{number}.diag", text)
        for command in DIAGRAM_LIKE_COMMANDS:
            why = _bad_outcome(*_run([path if arg == "{}" else arg for arg in command]), False)
            if why:
                problems.append(f"{command[:2]} on {text!r}: {why}")
    assert not problems, "\n".join(problems[:20])


@pytest.mark.parametrize(
    "text, command, code",
    [
        # not skew-symmetrisable
        ("2\n0 1\n1 0\n", ["matrix", "mutate", "{}", "1"], 2),
        ("2\n0 1\n1 0\n", ["diagram", "of", "{}"], 2),
        ("2\n0 1\n1 0\n", ["diagram", "class", "{}"], 2),
        ("2\n0 1\n1 0\n", ["pipeline", "{}", "1"], 2),
        ("2\n0 1\n1 0\n", ["companion", "check", "A2", "{a2basis}", "{}"], 2),
        ("2\n0 1\n1 0\n", ["theorem-a", "{}"], 2),
        # JSON of the wrong shape
        ('{"n": 2, "rows": 5}', ["matrix", "mutate", "{}", "1"], 2),
        ('{"n": 2, "rows": 5}', ["theorem-a", "{}"], 2),
        ('{"n": 0, "rows": []}', ["diagram", "class", "{}"], 2),
        ('{"n": 2, "edges": [[1, 2]]}', ["diagram", "class", "{}"], 2),
        ('{"n": 2, "edges": [[1, 2]]}', ["present", "full", "{}"], 2),
        ('{"n": 0, "edges": []}', ["verify-type", "{}"], 2),
        ('{"generators": 2, "relations": [{"exponent": 2}]}', ["order", "{}"], 2),
        ('{"generators": 2, "relations": [{"exponent": 2}]}', ["export", "{}"], 2),
        ('{"generators": 1, "relations": [5]}', ["order", "{}"], 2),
        # JSON numbers that are not integers
        ('{"n": 2, "rows": [[0, 1.9], [-1, 0]]}', ["matrix", "mutate", "{}", "1"], 2),
        ('{"n": 2, "rows": [[0, true], [-1, 0]]}', ["matrix", "mutate", "{}", "1"], 2),
        ('{"n": 2, "edges": [[1, 2, 1.0]]}', ["verify-mutation", "{}", "1"], 2),
        # a well-formed diagram with no presentation
        ("2\n1 2 7\n", ["present", "full", "{}"], 1),
        ("2\n1 2 7\n", ["present", "reduced", "{}"], 1),
        ("2\n1 2 7\n", ["verify-mutation", "{}", "1"], 1),
        ("2\n1 2 7\n", ["diagram", "class", "{}"], 1),
        # disconnected: beyond the class enumeration, like rank 11; verify-type
        # takes each component on its own, and one of weight 7 has no type
        ("2\n0 0\n0 0\n", ["diagram", "class", "{}"], 2),
        ("2\n0 0\n0 0\n", ["diagram", "type", "{}"], 2),
        ("3\n1 2 7\n", ["verify-type", "{}"], 1),
        ("2\n0 0\n0 0\n", ["theorem-a", "{}"], 2),
        # flags
        (CYCLE_MATRIX, ["verify-type", "{}", "--cap", "x"], 2),
        (CYCLE_MATRIX, ["theorem-a", "{}", "--sample", "1.5"], 2),
        (CYCLE_MATRIX, ["matrix", "mutate", "{}", "one"], 2),
        (CYCLE_MATRIX, ["matrix", "mutate", "{}", "5"], 2),
        (CYCLE_MATRIX, ["pipeline", "{}", "1,x"], 2),
        (CYCLE_MATRIX, ["diagram", "frobnicate", "{}"], 2),
    ],
)
def test_malformed_inputs_exit_with_one_error_line(tmp_path, text, command, code):
    files = {"{}": _write(tmp_path, "input", text), "{a2basis}": _write(tmp_path, "a2.basis", "1 0\n0 1\n")}
    got, out, err = _run([files.get(arg, arg) for arg in command])
    assert (got, out) == (code, "")
    assert _one_error_line(err), err
