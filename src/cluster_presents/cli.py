"""Command-line interface: every operation, pipeline, and verification as a subcommand.

Artifact subcommands (matrix, diagram, present, roots, companion, signed-graph,
switch, export) print the text formats by default and JSON with --json where
applicable.  Verification subcommands (order, verify-mutation, verify-type,
theorem-a, pipeline) print a single JSON report.  All vertices and generators
are 1-based on the command line, and so are those an error line names.  The
environment variable CLUSTER_PRESENTS_CAP overrides the default live-coset
cap; an explicit --cap beats both.

Exit codes follow one rule.  0: a pass, or the artifact asked for.  1: a
verdict of fail or overflow, or well-formed input that is not of finite type.
2: a malformed file, flag, label or vertex (a list of vertices is refused
whole, before any step runs), or input beyond the canonical labeling (rank
above 10); the class commands (diagram class, diagram type, theorem-a) also
refuse a disconnected diagram.  Whenever no output is printed, stderr holds
exactly one `error:` line.  A reader that closes the pipe early gets exit 1
and nothing on stderr; a command started with stdout closed exits as it
would have, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import NoReturn

from . import __version__, dynkin
from .coset import (
    DEFAULT_COSET_CAP,
    CosetCapExceeded,
    _certify,
    _component_bases,
    _enumerate,
    _relators,
    verify_mutation_isomorphism,
    weyl_order,
)
from .diagram import (
    DEFAULT_CLASS_CAP,
    Diagram,
    DiagramError,
    MutationClassOverflow,
    NotFiniteTypeError,
    _check_canonical_rank,
    _matrix_edges,
    _one_based,
    chordless_cycles,
    connected_components,
    diagram_of,
    mutate_diagram,
    mutation_class,
)
from .exchange import ExchangeMatrix, _mutate_entries, is_two_finite, mutate_matrix
from .formats import (
    FORMAT_VERSION,
    FormatError,
    _diagram_data,
    _matrix_data,
    dump_basis,
    dump_diagram,
    dump_matrix,
    dump_presentation,
    dump_signed_graph,
    load_basis,
    load_diagram,
    load_matrix,
    load_presentation,
    load_signed_graph,
)
from .presentation import (
    Presentation,
    _check_presentation_rank,
    full_presentation,
    mutation_witness_words,
    reduced_presentation,
)
from .roots import (
    CompanionBasis,
    build_root_system,
    companion_bases,
    companion_matrix,
    is_companion_basis,
    local_switch,
    mutate_companion,
    signed_graph,
    simple_root_basis,
)


def _die(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


class _Parser(argparse.ArgumentParser):
    """Usage errors as one `error:` line and exit 2 (subparsers share the class)."""

    def error(self, message: str) -> NoReturn:
        _die(message)


def _positive_int(text: str) -> int:
    """argparse type of --cap: an integer of at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")


def _sample(text: str) -> str:
    """argparse type of --sample: 'all' or a positive member count, kept as typed."""
    try:
        if text == "all" or int(text) >= 1:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be 'all' or a positive integer, not {text!r}")


def _coset_cap(args) -> int:
    """--cap, else CLUSTER_PRESENTS_CAP, else the default."""
    env = os.environ.get("CLUSTER_PRESENTS_CAP")
    if args.cap is not None:
        return args.cap
    if not env:
        return DEFAULT_COSET_CAP
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        _die(f"CLUSTER_PRESENTS_CAP {exc}")


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        _die(f"cannot read {path}: {exc.strerror or exc}")


def _parse(path: str, text: str, loader):
    """loader(text); a malformed file is a usage error naming its path."""
    try:
        return loader(text)
    except FormatError as exc:
        _die(f"{path}: {exc}")


def _load(path: str, loader):
    return _parse(path, _read_file(path), loader)


def _diagram_or_matrix(text: str) -> Diagram:
    """A diagram file, or a matrix file taken through its diagram."""
    try:
        return load_diagram(text)
    except FormatError as diagram_err:
        try:
            return diagram_of(load_matrix(text))
        except FormatError as matrix_err:
            raise FormatError(f"neither a diagram ({diagram_err}) nor a matrix ({matrix_err})") from None


def _valid(call, *args):
    """call(*args); the ValueError by which it refuses its input is a usage error."""
    try:
        return call(*args)
    except ValueError as exc:
        _die(_one_based(exc))


def _vertex(diagram_n: int, k: int) -> int:
    if not 1 <= k <= diagram_n:
        _die(f"vertex {k} out of range 1..{diagram_n}")
    return k - 1


def _vertex_list(text: str, name: str) -> list[int]:
    """Comma-separated integers, none for a blank text.  An empty token, as in
    1,,2 or 1,2, and int()'s digit separators, as in 1_0, are refused."""
    tokens = text.split(",") if text.strip() else []
    if not all(re.fullmatch(r"\s*[+-]?[0-9]+\s*", tok) for tok in tokens):
        _die(f"bad {name} {text!r}; expected comma-separated vertices")
    return [int(tok) for tok in tokens]


def _mutation_class(diagram: Diagram, cap: int = DEFAULT_CLASS_CAP):
    """mutation_class for the commands that enumerate one.  A rank beyond the
    canonical labeling's is a usage error, checked before any pass over the
    vertices, and so is a disconnected diagram, whose class has no one type
    to name."""
    _valid(_check_canonical_rank, diagram.n)
    if len(connected_components(diagram)) > 1:
        _die("mutation classes of disconnected diagrams are not supported")
    return _valid(mutation_class, diagram, cap)


def _digest(path: str, text: str) -> dict:
    return {"path": path, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _emit(text: str) -> int:
    print(text, end="")
    return 0


def _emit_dump(dump, value, as_json: bool) -> int:
    return _emit(dump(value, as_json=as_json) + ("\n" if as_json else ""))


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _verdict(report: dict) -> int:
    """Print a verdict report; exit 0 exactly when it passed."""
    _emit_json(report)
    return 0 if report["verdict"] == "pass" else 1


def _report(argv, inputs, results, verdict, started) -> int:
    return _verdict(
        {
            "tool_version": __version__,
            "format_version": FORMAT_VERSION,
            "command": argv,
            "inputs": inputs,
            "results": results,
            "verdict": verdict,
            "timings": {"total_seconds": round(time.monotonic() - started, 3)},
        }
    )


# ---------------------------------------------------------------- matrix


def _cmd_matrix_mutate(args, argv) -> int:
    matrix = _load(args.file, load_matrix)
    for k in [_vertex(matrix.n, k) for k in args.vertices]:
        matrix = mutate_matrix(matrix, k)
    return _emit_dump(dump_matrix, matrix, args.json)


# ---------------------------------------------------------------- diagram


def _cmd_diagram_of(args, argv) -> int:
    return _emit_dump(dump_diagram, diagram_of(_load(args.file, load_matrix)), args.json)


def _cmd_diagram_mutate(args, argv) -> int:
    diagram = _load(args.file, _diagram_or_matrix)
    for k in [_vertex(diagram.n, k) for k in args.vertices]:
        try:
            diagram = mutate_diagram(diagram, k)
        except DiagramError as exc:
            print(f"error: mutation at {k + 1} leaves finite type: {_one_based(exc)}", file=sys.stderr)
            return 1
    return _emit_dump(dump_diagram, diagram, args.json)


def _cmd_diagram_class(args, argv) -> int:
    mclass = _mutation_class(_load(args.file, _diagram_or_matrix), args.cap)
    if args.json:
        _emit_json(
            {
                "size": len(mclass),
                "type": mclass.type_label,
                "members": [_diagram_data(m) for m in mclass.members],
                "mutation_edges": [list(e) for e in sorted(mclass.edges)],
            }
        )
        return 0
    return _emit(f"size {len(mclass)}\ntype {mclass.type_label}\n")


def _cmd_diagram_type(args, argv) -> int:
    label = _mutation_class(_load(args.file, _diagram_or_matrix), args.cap).type_label
    if args.json:
        _emit_json({"type": label})
        return 0
    return _emit(label + "\n")


def _cmd_diagram_cycles(args, argv) -> int:
    cycles = chordless_cycles(_load(args.file, _diagram_or_matrix))
    if args.json:
        _emit_json(
            {
                "cycles": [
                    {
                        "vertices": [v + 1 for v in c.vertices],
                        "weights": list(c.weights),
                        "oriented": c.oriented,
                    }
                    for c in cycles
                ]
            }
        )
        return 0
    lines = []
    for c in cycles:
        verts = " ".join(str(v + 1) for v in c.vertices)
        weights = " ".join(str(w) for w in c.weights)
        lines.append(f"cycle {verts} weights {weights} oriented {'yes' if c.oriented else 'no'}")
    return _emit("\n".join(lines) + ("\n" if lines else ""))


# ---------------------------------------------------------------- present


def _cmd_present(args, argv) -> int:
    diagram = _load(args.file, _diagram_or_matrix)
    _valid(_check_presentation_rank, diagram.n)  # before any pass over the vertices
    if args.which == "ti":
        words = mutation_witness_words(diagram, _vertex(diagram.n, args.vertex))
        if args.json:
            _emit_json(
                {
                    "vertex": args.vertex,
                    "words": [[x + 1 for x in w] for w in words],
                }
            )
            return 0
        lines = [f"t{i + 1} = " + " ".join(f"s{x + 1}" for x in word) for i, word in enumerate(words)]
        return _emit("\n".join(lines) + "\n")
    builder = full_presentation if args.which == "full" else reduced_presentation
    return _emit_dump(dump_presentation, builder(diagram), args.json)


# ---------------------------------------------------------------- order / verify


def _cmd_order(args, argv) -> int:
    """group_order's exact enumeration with its cosets defined (none for no generators)."""
    presentation = _load(args.file, load_presentation)
    n = presentation.n
    order, defined = _enumerate(_relators(presentation.relations), range(n), (), _coset_cap(args)) if n else (1, 0)
    return _verdict({"order": order, "strategy": "direct", "cosets_defined": defined,
                     "verdict": "overflow" if order is None else "pass"})


def _cmd_verify_mutation(args, argv) -> int:
    diagram = _load(args.file, _diagram_or_matrix)
    k = _vertex(diagram.n, args.vertex)
    _valid(_check_canonical_rank, diagram.n)  # before any pass over the vertices
    try:
        cert = verify_mutation_isomorphism(diagram, k, cap=_coset_cap(args))
    except CosetCapExceeded as exc:
        return _verdict({"order": None, "strategy": "tower", "cosets_defined": exc.cosets_defined, "verdict": "overflow"})
    return _verdict(
        {
            "order": cert.order,
            "mutated_order": cert.mutated_order,
            "strategy": "tower",
            "cosets_defined": cert.cosets_defined,
            "vertex": args.vertex,
            "forward_homomorphism": cert.forward_homomorphism,
            "inverse_homomorphism": cert.inverse_homomorphism,
            "composition_identity": cert.forward_homomorphism and cert.inverse_homomorphism,
            "verdict": "pass" if cert.passed else "fail",
        }
    )


def _cmd_verify_type(args, argv) -> int:
    """Certify |G| = |W| for the diagram's presented group G (coset._certify).
    Each component's companion basis, which names its type, is built from its
    positive quasi-Cartan companion (roots.companion_basis)."""
    diagram = _load(args.file, _diagram_or_matrix)
    cap = _coset_cap(args)
    _valid(_check_canonical_rank, diagram.n)  # before any pass over the vertices
    cert = _certify(diagram, _valid(_component_bases, diagram), cap)
    report = {"order": cert.order, "strategy": "tower", "cosets_defined": cert.cosets_defined,
              "tower": cert.tower, "type": cert.label}
    if cert.order is not None:
        report["expected_order"] = cert.expected
    report.update(lower_bound=cert.lower_bound, verdict=cert.verdict)
    return _verdict(report)


# ---------------------------------------------------------------- theorem-a


def _cmd_theorem_a(args, argv) -> int:
    started = time.monotonic()
    cap = _coset_cap(args)
    if os.path.exists(args.target):
        text = _read_file(args.target)
        inputs = _digest(args.target, text)
        diagram = _parse(args.target, text, _diagram_or_matrix)
    else:
        label = _valid(dynkin.normalize_label, args.target)
        inputs = {"type": label}
        diagram = dynkin.standard_diagram(label)

    mclass = _mutation_class(diagram)
    label = mclass.type_label
    if label == "unknown":
        return _report(argv, inputs, {"type": label, "reason": "unidentified mutation class"}, "fail", started)

    indices = list(range(len(mclass.members)))
    if args.sample != "all" and int(args.sample) < len(indices):
        indices = sorted(random.Random(args.seed).sample(indices, int(args.sample)))

    bases = companion_bases(mclass)
    members = []
    for idx in indices:
        member = mclass.members[idx]
        cert = _certify(member, [(range(member.n), member, bases[idx])], cap)
        members.append({"member": idx, "order": cert.order, "tower": cert.tower, "lower_bound": cert.lower_bound,
                        "verdict": cert.verdict})
    verdicts = {m["verdict"] for m in members}
    verdict = "fail" if "fail" in verdicts else ("overflow" if "overflow" in verdicts else "pass")
    results = {
        "type": label,
        "expected_order": weyl_order(label),
        "class_size": len(mclass),
        "checked": len(indices),
        "sample": args.sample,
        "seed": args.seed,
        "members": members,
    }
    return _report(argv, inputs, results, verdict, started)


# ---------------------------------------------------------------- pipeline


# labeled seeds the search of pipeline --type reaches before it gives up
_SEED_SEARCH_LIMIT = 100_000


def _seed_basis_path(target: ExchangeMatrix, label: str):
    """BFS from the standard seed of the type to the target matrix; returns the vertex path.

    The search runs on bare entries (exchange._mutate_entries); the caller
    replays the path with mutate_matrix, which validates every step."""
    seed = dynkin.standard_exchange_matrix(label)
    start = seed.entries
    goal = target.entries
    if goal == start:
        return []
    parents: dict = {start: None}
    queue = [start]
    while queue and len(parents) < _SEED_SEARCH_LIMIT:
        nxt = []
        for entries in queue:
            for k in range(seed.n):
                child = _mutate_entries(entries, k)
                if child in parents:
                    continue
                parents[child] = (entries, k)
                if child == goal:
                    path = []
                    node = child
                    while parents[node] is not None:
                        node, step = parents[node]
                        path.append(step)
                    return list(reversed(path))
                nxt.append(child)
        queue = nxt
    _die(f"matrix is not reachable from the standard {label} seed (searched {len(parents)} seeds)")


def _cmd_pipeline(args, argv) -> int:
    started = time.monotonic()
    text = _read_file(args.file)
    matrix = _parse(args.file, text, load_matrix)
    script = [_vertex(matrix.n, k) for k in _vertex_list(args.script, "mutation script")]
    inputs = _digest(args.file, text)
    inputs["script"] = args.script

    basis = None
    if args.type:
        inputs["type"] = args.type
        label = _valid(dynkin.normalize_label, args.type)
        rank = dynkin.parse_label(label)[1]
        if rank != matrix.n:  # before the root system, whose cost grows with the rank
            _die(f"type {label} has rank {rank}, matrix has rank {matrix.n}")
        system = build_root_system(label)
        path = _seed_basis_path(matrix, label)
        current = dynkin.standard_exchange_matrix(label)
        basis = simple_root_basis(system)
        for k in path:
            basis = mutate_companion(basis, k, diagram_of(current))
            current = mutate_matrix(current, k)

    diagram = diagram_of(matrix)
    steps = []
    fail_step = None  # the first step that fails, 0 for the input's basis
    if basis is not None:
        ok, reason = is_companion_basis(basis, matrix)
        if not ok:
            fail_step = 0
            steps.append({"step": 0, "vertex": None, "companion_ok": False, "reason": reason})
    for idx, k in enumerate(script, start=1):
        if fail_step is not None:
            break
        step_info: dict = {"step": idx, "vertex": k + 1}
        new_matrix = mutate_matrix(matrix, k)
        try:
            new_diagram = mutate_diagram(diagram, k)
        except DiagramError as exc:
            step_info["diagram_error"] = _one_based(exc)
            steps.append(step_info)
            fail_step = idx
            break
        step_info["two_finite"] = is_two_finite(new_matrix)
        step_info["diagram_commutes"] = _matrix_edges(new_matrix.entries) == new_diagram.edges
        step_info["involution"] = _mutate_entries(new_matrix.entries, k) == matrix.entries
        if basis is not None:
            new_basis = mutate_companion(basis, k, diagram)
            ok, reason = is_companion_basis(new_basis, new_matrix)
            step_info["companion_ok"] = ok
            if reason:
                step_info["reason"] = reason
            restored = mutate_companion(new_basis, k, diagram)
            step_info["companion_restored"] = restored.vectors == basis.vectors
            basis = new_basis
        checks = ("two_finite", "diagram_commutes", "involution", "companion_ok", "companion_restored")
        if not all(step_info.get(check, True) for check in checks):
            fail_step = idx
        steps.append(step_info)
        matrix = new_matrix
        diagram = new_diagram

    results = {
        "steps": steps,
        "final_matrix": _matrix_data(matrix),
        "final_diagram": _diagram_data(diagram),
    }
    if basis is not None:
        results["final_basis"] = [list(v) for v in basis.vectors]
    if fail_step is not None:
        results["failed_step"] = fail_step
    return _report(argv, inputs, results, "pass" if fail_step is None else "fail", started)


# ---------------------------------------------------------------- roots / companion


def _cmd_roots_build(args, argv) -> int:
    system = _valid(build_root_system, args.type)
    if args.json:
        _emit_json(
            {
                "type": system.label,
                "rank": system.n,
                "count": len(system.roots),
                "roots": [list(r) for r in system.roots],
            }
        )
        return 0
    return _emit(dump_basis(system.roots))


def _load_companion_basis(type_label: str, basis_path: str) -> CompanionBasis:
    """The basis file's vectors in the type's root system, their lengths
    checked against the rank before the root system is built."""
    label = _valid(dynkin.normalize_label, type_label)
    vectors = _load(basis_path, load_basis)
    rank = dynkin.parse_label(label)[1]
    if len(vectors[0]) != rank:  # load_basis gives vectors of one length
        _die(f"vector {vectors[0]} has wrong length for rank {rank}")
    return CompanionBasis(build_root_system(label), vectors)


def _cmd_companion_check(args, argv) -> int:
    basis = _load_companion_basis(args.type, args.basis)
    ok, reason = _valid(is_companion_basis, basis, _load(args.matrix, load_matrix))
    return _verdict({"ok": ok, "reason": reason, "verdict": "pass" if ok else "fail"})


def _cmd_companion_mutate(args, argv) -> int:
    basis = _load_companion_basis(args.type, args.basis)
    matrix = _load(args.matrix, load_matrix)
    k = _vertex(matrix.n, args.vertex)
    if args.outward:
        matrix = mutate_matrix(matrix, k)
    return _emit(dump_basis(_valid(mutate_companion, basis, k, diagram_of(matrix)).vectors))


def _cmd_signed_graph(args, argv) -> int:
    basis = _load_companion_basis(args.type, args.basis)
    return _emit(dump_signed_graph(_valid(lambda: signed_graph(companion_matrix(basis)))))


def _cmd_switch(args, argv) -> int:
    graph = _load(args.file, load_signed_graph)
    chosen = _vertex_list(args.in_set, "--in-set")
    k = _vertex(graph.n, args.vertex)
    in_set = [_vertex(graph.n, i) for i in chosen]
    return _emit(dump_signed_graph(_valid(local_switch, graph, k, in_set)))


# ---------------------------------------------------------------- export


def _generic_fp(pres: Presentation) -> str:
    lines = [f"F := FreeGroup({pres.n});", "rels := ["]
    for rel in pres.relations:
        word = "*".join(f"s{x + 1}" for x in rel.word)
        lines.append(f"  ({word})^{rel.exponent},")
    if pres.relations:
        lines[-1] = lines[-1][:-1]  # no comma after the last relation
    lines.append("];")
    return "\n".join(lines) + "\n"


def _cmd_export(args, argv) -> int:
    pres = _load(args.file, load_presentation)
    if args.format == "native":
        return _emit(dump_presentation(pres))
    return _emit(_generic_fp(pres))


# ---------------------------------------------------------------- parser


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state in it, and
    everything read per call (the environment, sys.stdout and sys.stderr) is
    read when the command runs."""
    parser = _Parser(
        prog="cluster-presents",
        description="Mutate exchange matrices and diagrams, generate reflection-group presentations, and verify them by coset enumeration.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="exchange-matrix operations")
    msub = p.add_subparsers(dest="which", required=True)
    m = msub.add_parser("mutate", help="mutate a matrix at one or more vertices")
    m.add_argument("file")
    m.add_argument("vertices", nargs="+", type=int, metavar="k")
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=_cmd_matrix_mutate)

    p = sub.add_parser("diagram", help="diagram operations")
    dsub = p.add_subparsers(dest="which", required=True)
    d = dsub.add_parser("of", help="diagram of an exchange matrix")
    d.add_argument("file")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_diagram_of)
    d = dsub.add_parser("mutate", help="mutate a diagram at one or more vertices")
    d.add_argument("file")
    d.add_argument("vertices", nargs="+", type=int, metavar="k")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_diagram_mutate)
    d = dsub.add_parser("class", help="enumerate the mutation class")
    d.add_argument("file")
    d.add_argument("--cap", type=_positive_int, default=DEFAULT_CLASS_CAP)
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_diagram_class)
    d = dsub.add_parser("type", help="identify the Dynkin type of the mutation class")
    d.add_argument("file")
    d.add_argument("--cap", type=_positive_int, default=DEFAULT_CLASS_CAP)
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_diagram_type)
    d = dsub.add_parser("cycles", help="list chordless cycles")
    d.add_argument("file")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_diagram_cycles)

    p = sub.add_parser("present", help="build presentations and witness words")
    psub = p.add_subparsers(dest="which", required=True)
    for which in ("full", "reduced"):
        q = psub.add_parser(which, help=f"{which} presentation of a diagram")
        q.add_argument("file")
        q.add_argument("--json", action="store_true")
        q.set_defaults(func=_cmd_present, which=which)
    q = psub.add_parser("ti", help="mutation witness words at a vertex")
    q.add_argument("file")
    q.add_argument("vertex", type=int, metavar="k")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_present, which="ti")

    p = sub.add_parser("order", help="group order of a presentation by coset enumeration")
    p.add_argument("file", metavar="presentation-file")
    p.add_argument("--cap", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("verify-mutation", help="certify that mutation preserves the presented group")
    p.add_argument("file", metavar="diagram-file")
    p.add_argument("vertex", type=int, metavar="k")
    p.add_argument("--cap", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_verify_mutation)

    p = sub.add_parser("verify-type", help="compare a diagram's group order against its identified type")
    p.add_argument("file", metavar="diagram-file")
    p.add_argument("--cap", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_verify_type)

    p = sub.add_parser("theorem-a", help="check the whole mutation class against the type's reflection-group order")
    p.add_argument("target", metavar="type-or-matrix-file")
    p.add_argument("--sample", type=_sample, default="all", help="'all' or a member count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_theorem_a)

    p = sub.add_parser("pipeline", help="run a mutation script with lockstep invariant checks")
    p.add_argument("file", metavar="matrix-file")
    p.add_argument("script", help="comma-separated 1-based vertices, e.g. 1,2,1")
    p.add_argument("--type", default=None, help="root-system type for companion-basis tracking")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("roots", help="root-system operations")
    rsub = p.add_subparsers(dest="which", required=True)
    r = rsub.add_parser("build", help="list all roots of a type")
    r.add_argument("type")
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=_cmd_roots_build)

    p = sub.add_parser("companion", help="companion-basis operations")
    csub = p.add_subparsers(dest="which", required=True)
    c = csub.add_parser("check", help="is the basis a companion basis for the matrix?")
    c.add_argument("type")
    c.add_argument("basis", metavar="basis-file")
    c.add_argument("matrix", metavar="matrix-file")
    c.set_defaults(func=_cmd_companion_check)
    c = csub.add_parser("mutate", help="mutate a companion basis at a vertex")
    c.add_argument("type")
    c.add_argument("basis", metavar="basis-file")
    c.add_argument("matrix", metavar="matrix-file")
    c.add_argument("vertex", type=int, metavar="k")
    c.add_argument("--outward", action="store_true")
    c.set_defaults(func=_cmd_companion_mutate)

    p = sub.add_parser("signed-graph", help="signed graph of a basis's companion matrix")
    p.add_argument("type")
    p.add_argument("basis", metavar="basis-file")
    p.set_defaults(func=_cmd_signed_graph)

    p = sub.add_parser("switch", help="local switching move on a signed graph")
    p.add_argument("file", metavar="signed-graph-file")
    p.add_argument("vertex", type=int, metavar="k")
    p.add_argument("--in-set", dest="in_set", default="", help="comma-separated neighbours of k")
    p.set_defaults(func=_cmd_switch)

    p = sub.add_parser("export", help="export a presentation")
    p.add_argument("file", metavar="presentation-file")
    p.add_argument("--format", choices=("native", "generic-fp"), default="native")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args, argv)
        if sys.stdout is not None:  # None when the command started with stdout closed
            sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except (DiagramError, NotFiniteTypeError, MutationClassOverflow) as exc:
        print(f"error: {_one_based(exc)}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed the pipe: the rest of the output goes nowhere, and
        # the flush at exit cannot fail again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
