"""Command-line interface: every operation, pipeline, and verification as a subcommand.

Artifact subcommands (matrix, diagram, present, roots, companion, signed-graph,
switch, export) print the text formats by default and JSON with --json where
applicable.  Verification subcommands (order, verify-mutation, verify-type,
theorem-a, pipeline) print a single JSON report and exit 0 exactly when the
verdict is "pass".  All vertices and generators are 1-based on the command
line.  The environment variable CLUSTER_PRESENTS_CAP overrides the default
live-coset cap; an explicit --cap beats both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from pathlib import Path

from . import __version__
from .coset import (
    DEFAULT_COSET_CAP,
    _auto_strategy,
    coset_enumerate,
    group_order,
    verify_mutation_isomorphism,
    weyl_order,
)
from .diagram import (
    DEFAULT_CLASS_CAP,
    Diagram,
    DiagramError,
    MutationClassOverflow,
    NotFiniteTypeError,
    chordless_cycles,
    diagram_of,
    identify_dynkin_type,
    mutate_diagram,
    mutation_class,
)
from .exchange import ExchangeMatrix, is_two_finite, mutate_matrix
from .formats import (
    FORMAT_VERSION,
    FormatError,
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
    full_presentation,
    mutation_witness_words,
    reduced_presentation,
)
from .roots import (
    CompanionBasis,
    build_root_system,
    companion_matrix,
    is_companion_basis,
    local_switch,
    mutate_companion,
    signed_graph,
    simple_root_basis,
)

def _die(message: str) -> "None":
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        _die(f"cannot read {path}: {exc.strerror or exc}")


def _digest(path: str, text: str) -> dict:
    return {"path": path, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _at_least_one(value: int, name: str) -> int:
    if value < 1:
        _die(f"{name} must be at least 1, not {value}")
    return value


def _class_cap(args) -> int:
    return DEFAULT_CLASS_CAP if args.cap is None else _at_least_one(args.cap, "--cap")


def _coset_cap(args) -> int:
    if args.cap is not None:
        return _at_least_one(args.cap, "--cap")
    env = os.environ.get("CLUSTER_PRESENTS_CAP")
    if env:
        try:
            cap = int(env)
        except ValueError:
            _die(f"CLUSTER_PRESENTS_CAP must be an integer, not {env!r}")
        return _at_least_one(cap, "CLUSTER_PRESENTS_CAP")
    return DEFAULT_COSET_CAP


def _mutation_class(diagram: Diagram, cap: int = DEFAULT_CLASS_CAP):
    """mutation_class for the commands that enumerate one: a rank beyond the
    canonical labeling's is an input error."""
    try:
        return mutation_class(diagram, cap=cap)
    except ValueError as exc:
        _die(str(exc))


def _load_diagram_like(path: str) -> Diagram:
    """Accept a diagram file, or a matrix file (converted via its diagram)."""
    text = _read_file(path)
    try:
        return load_diagram(text)
    except FormatError as diagram_err:
        try:
            return diagram_of(load_matrix(text))
        except FormatError:
            _die(f"{path}: {diagram_err}")


def _vertex(diagram_n: int, k: int) -> int:
    if not 1 <= k <= diagram_n:
        _die(f"vertex {k} out of range 1..{diagram_n}")
    return k - 1


def _emit(text: str) -> int:
    sys.stdout.write(text)
    return 0


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _report(argv, inputs, results, verdict, started) -> int:
    _emit_json(
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
    return 0 if verdict == "pass" else 1


# ---------------------------------------------------------------- matrix


def _cmd_matrix_mutate(args, argv) -> int:
    text = _read_file(args.file)
    try:
        matrix = load_matrix(text)
    except FormatError as exc:
        _die(f"{args.file}: {exc}")
    for k in args.vertices:
        matrix = mutate_matrix(matrix, _vertex(matrix.n, k))
    return _emit(dump_matrix(matrix, as_json=args.json) + ("\n" if args.json else ""))


# ---------------------------------------------------------------- diagram


def _cmd_diagram_of(args, argv) -> int:
    try:
        matrix = load_matrix(_read_file(args.file))
    except FormatError as exc:
        _die(f"{args.file}: {exc}")
    return _emit(dump_diagram(diagram_of(matrix), as_json=args.json) + ("\n" if args.json else ""))


def _cmd_diagram_mutate(args, argv) -> int:
    diagram = _load_diagram_like(args.file)
    for k in args.vertices:
        try:
            diagram = mutate_diagram(diagram, _vertex(diagram.n, k))
        except DiagramError as exc:
            print(f"error: mutation at {k} leaves finite type: {exc}", file=sys.stderr)
            return 1
    return _emit(dump_diagram(diagram, as_json=args.json) + ("\n" if args.json else ""))


def _cmd_diagram_class(args, argv) -> int:
    diagram = _load_diagram_like(args.file)
    try:
        mclass = _mutation_class(diagram, _class_cap(args))
    except NotFiniteTypeError as exc:
        print(f"error: not of finite type: {exc}", file=sys.stderr)
        return 1
    except MutationClassOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _emit_json(
            {
                "size": len(mclass),
                "type": mclass.type_label,
                "members": [json.loads(dump_diagram(m, as_json=True)) for m in mclass.members],
                "mutation_edges": [list(e) for e in sorted(mclass.edges)],
            }
        )
        return 0
    return _emit(f"size {len(mclass)}\ntype {mclass.type_label}\n")


def _cmd_diagram_type(args, argv) -> int:
    diagram = _load_diagram_like(args.file)
    try:
        label = identify_dynkin_type(_mutation_class(diagram, _class_cap(args)))
    except (NotFiniteTypeError, MutationClassOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _emit_json({"type": label})
        return 0
    return _emit(label + "\n")


def _cmd_diagram_cycles(args, argv) -> int:
    diagram = _load_diagram_like(args.file)
    cycles = chordless_cycles(diagram)
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
    diagram = _load_diagram_like(args.file)
    if args.which == "ti":
        k = _vertex(diagram.n, args.vertex)
        words = mutation_witness_words(diagram, k)
        if args.json:
            _emit_json(
                {
                    "vertex": args.vertex,
                    "words": [[x + 1 for x in w] for w in words],
                }
            )
            return 0
        lines = [
            f"t{i + 1} = " + " ".join(f"s{x + 1}" for x in words[i])
            for i in range(diagram.n)
        ]
        return _emit("\n".join(lines) + "\n")
    try:
        builder = full_presentation if args.which == "full" else reduced_presentation
        pres = builder(diagram)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _emit(dump_presentation(pres, as_json=args.json) + ("\n" if args.json else ""))


# ---------------------------------------------------------------- order / verify


def _cmd_order(args, argv) -> int:
    try:
        pres = load_presentation(_read_file(args.file))
    except FormatError as exc:
        _die(f"{args.file}: {exc}")
    cap = _coset_cap(args)
    stats: dict = {}
    from .coset import CosetCapExceeded

    try:
        order = group_order(pres, strategy=args.strategy, cap=cap, stats=stats)
        verdict = "pass"
    except CosetCapExceeded:
        order = None
        verdict = "overflow"
    _emit_json(
        {
            "order": order,
            "strategy": args.strategy,
            "cosets_defined": stats.get("cosets_defined", 0),
            "verdict": verdict,
        }
    )
    return 0 if verdict == "pass" else 1


def _cmd_verify_mutation(args, argv) -> int:
    from .coset import CosetCapExceeded

    diagram = _load_diagram_like(args.file)
    k = _vertex(diagram.n, args.vertex)
    cap = _coset_cap(args)
    try:
        cert = verify_mutation_isomorphism(diagram, k, cap=cap)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CosetCapExceeded as exc:
        _emit_json(
            {
                "order": None,
                "strategy": "direct",
                "cosets_defined": exc.cosets_defined,
                "verdict": "overflow",
            }
        )
        return 1
    verdict = "pass" if cert.passed else "fail"
    _emit_json(
        {
            "order": cert.order,
            "mutated_order": cert.mutated_order,
            "strategy": "direct",
            "cosets_defined": cert.cosets_defined,
            "vertex": args.vertex,
            "forward_homomorphism": cert.forward_homomorphism,
            "inverse_homomorphism": cert.inverse_homomorphism,
            "composition_identity": cert.composition_identity,
            "verdict": verdict,
        }
    )
    return 0 if verdict == "pass" else 1


def _cmd_verify_type(args, argv) -> int:
    from .coset import CosetCapExceeded

    diagram = _load_diagram_like(args.file)
    cap = _coset_cap(args)
    try:
        mclass = _mutation_class(diagram)
    except (NotFiniteTypeError, MutationClassOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    label = identify_dynkin_type(mclass)
    strategy = _auto_strategy(diagram.n)
    stats: dict = {}
    try:
        order = group_order(full_presentation(diagram), strategy=strategy, cap=cap, stats=stats)
    except CosetCapExceeded:
        _emit_json(
            {
                "order": None,
                "strategy": strategy,
                "cosets_defined": stats.get("cosets_defined", 0),
                "type": label,
                "verdict": "overflow",
            }
        )
        return 1
    expected = weyl_order(label) if label != "unknown" else None
    verdict = "pass" if expected == order else "fail"
    _emit_json(
        {
            "order": order,
            "strategy": strategy,
            "cosets_defined": stats.get("cosets_defined", 0),
            "type": label,
            "expected_order": expected,
            "verdict": verdict,
        }
    )
    return 0 if verdict == "pass" else 1


# ---------------------------------------------------------------- theorem-a


def _cmd_theorem_a(args, argv) -> int:
    from .coset import CosetCapExceeded
    from . import dynkin

    started = time.monotonic()
    cap = _coset_cap(args)
    count = None
    if args.sample != "all":
        try:
            count = int(args.sample)
        except ValueError:
            count = 0
        if count < 1:
            _die(f"--sample must be 'all' or a positive integer, not {args.sample!r}")
    if os.path.exists(args.target):
        text = _read_file(args.target)
        inputs = _digest(args.target, text)
        diagram = _load_diagram_like(args.target)
    else:
        try:
            label = dynkin.normalize_label(args.target)
        except ValueError as exc:
            _die(str(exc))
        inputs = {"type": label}
        diagram = dynkin.standard_diagram(label)

    try:
        mclass = _mutation_class(diagram)
    except (NotFiniteTypeError, MutationClassOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    label = identify_dynkin_type(mclass)
    if label == "unknown":
        return _report(argv, inputs, {"type": label, "reason": "unidentified mutation class"}, "fail", started)
    expected = weyl_order(label)

    indices = list(range(len(mclass.members)))
    if count is not None and count < len(indices):
        rng = random.Random(args.seed)
        indices = sorted(rng.sample(indices, count))

    members = []
    any_fail = False
    any_overflow = False
    for idx in indices:
        member = mclass.members[idx]
        strategy = _auto_strategy(member.n)
        try:
            order = group_order(reduced_presentation(member), strategy=strategy, cap=cap)
        except CosetCapExceeded:
            members.append({"member": idx, "order": None, "verdict": "overflow"})
            any_overflow = True
            continue
        ok = order == expected
        members.append({"member": idx, "order": order, "verdict": "pass" if ok else "fail"})
        any_fail = any_fail or not ok
    verdict = "fail" if any_fail else ("overflow" if any_overflow else "pass")
    results = {
        "type": label,
        "expected_order": expected,
        "class_size": len(mclass),
        "checked": len(indices),
        "sample": args.sample,
        "seed": args.seed,
        "members": members,
    }
    return _report(argv, inputs, results, verdict, started)


# ---------------------------------------------------------------- pipeline


def _seed_basis_path(target: ExchangeMatrix, label: str, limit: int = 100_000):
    """BFS from the standard seed of the type to the target matrix; returns the vertex path."""
    from . import dynkin

    seed = dynkin.standard_exchange_matrix(label)
    if seed.n != target.n:
        _die(f"type {label} has rank {seed.n}, matrix has rank {target.n}")
    start = seed.entries
    goal = target.entries
    if goal == start:
        return []
    parents: dict = {start: None}
    queue = [start]
    matrices = {start: seed}
    while queue and len(parents) < limit:
        nxt = []
        for entries in queue:
            current = matrices[entries]
            for k in range(current.n):
                child = mutate_matrix(current, k)
                if child.entries in parents:
                    continue
                parents[child.entries] = (entries, k)
                matrices[child.entries] = child
                if child.entries == goal:
                    path = []
                    node = child.entries
                    while parents[node] is not None:
                        node, step = parents[node]
                        path.append(step)
                    return list(reversed(path))
                nxt.append(child.entries)
        queue = nxt
    _die(f"matrix is not reachable from the standard {label} seed (searched {len(parents)} seeds)")


def _cmd_pipeline(args, argv) -> int:
    started = time.monotonic()
    text = _read_file(args.file)
    try:
        matrix = load_matrix(text)
    except FormatError as exc:
        _die(f"{args.file}: {exc}")
    try:
        script = [int(tok) for tok in args.script.split(",") if tok.strip()]
    except ValueError:
        _die(f"bad mutation script {args.script!r}; expected comma-separated vertices")
    inputs = _digest(args.file, text)
    inputs["script"] = args.script
    if args.type:
        inputs["type"] = args.type

    basis = None
    system = None
    if args.type:
        from . import dynkin

        try:
            label = dynkin.normalize_label(args.type)
        except ValueError as exc:
            _die(str(exc))
        system = build_root_system(label)
        path = _seed_basis_path(matrix, label)
        current = dynkin.standard_exchange_matrix(label)
        basis = simple_root_basis(system)
        for k in path:
            basis = mutate_companion(basis, k, diagram_of(current), "inward")
            current = mutate_matrix(current, k)

    diagram = diagram_of(matrix)
    steps = []
    verdict = "pass"
    fail_step = None
    if basis is not None:
        ok, reason = is_companion_basis(basis, matrix)
        if not ok:
            verdict = "fail"
            fail_step = 0
            steps.append({"step": 0, "vertex": None, "companion_ok": False, "reason": reason})
    for idx, k1 in enumerate(script, start=1):
        if verdict == "fail":
            break
        k = _vertex(matrix.n, k1)
        step_info: dict = {"step": idx, "vertex": k1}
        new_matrix = mutate_matrix(matrix, k)
        try:
            new_diagram = mutate_diagram(diagram, k)
        except DiagramError as exc:
            step_info["diagram_error"] = str(exc)
            steps.append(step_info)
            verdict = "fail"
            fail_step = idx
            break
        step_info["two_finite"] = is_two_finite(new_matrix)
        step_info["diagram_commutes"] = diagram_of(new_matrix) == new_diagram
        step_info["involution"] = mutate_matrix(new_matrix, k).entries == matrix.entries
        if basis is not None:
            new_basis = mutate_companion(basis, k, diagram, "inward")
            ok, reason = is_companion_basis(new_basis, new_matrix)
            step_info["companion_ok"] = ok
            if reason:
                step_info["reason"] = reason
            restored = mutate_companion(new_basis, k, new_diagram, "outward")
            step_info["companion_restored"] = restored.vectors == basis.vectors
            basis = new_basis
            if not (ok and step_info["companion_restored"]):
                verdict = "fail"
                fail_step = idx
        if not (step_info["two_finite"] and step_info["diagram_commutes"] and step_info["involution"]):
            verdict = "fail"
            fail_step = idx
        steps.append(step_info)
        matrix = new_matrix
        diagram = new_diagram

    results = {
        "steps": steps,
        "final_matrix": json.loads(dump_matrix(matrix, as_json=True)),
        "final_diagram": json.loads(dump_diagram(diagram, as_json=True)),
    }
    if basis is not None:
        results["final_basis"] = [list(v) for v in basis.vectors]
    if fail_step is not None:
        results["failed_step"] = fail_step
    return _report(argv, inputs, results, verdict, started)


# ---------------------------------------------------------------- roots / companion


def _cmd_roots_build(args, argv) -> int:
    try:
        system = build_root_system(args.type)
    except ValueError as exc:
        _die(str(exc))
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


def _load_system_basis(type_label: str, basis_path: str):
    try:
        system = build_root_system(type_label)
    except ValueError as exc:
        _die(str(exc))
    try:
        vectors = load_basis(_read_file(basis_path))
    except FormatError as exc:
        _die(f"{basis_path}: {exc}")
    try:
        return system, CompanionBasis(system, vectors)
    except ValueError as exc:
        _die(str(exc))


def _cmd_companion_check(args, argv) -> int:
    _, basis = _load_system_basis(args.type, args.basis)
    try:
        matrix = load_matrix(_read_file(args.matrix))
    except FormatError as exc:
        _die(f"{args.matrix}: {exc}")
    try:
        ok, reason = is_companion_basis(basis, matrix)
    except ValueError as exc:
        _die(str(exc))
    _emit_json({"ok": ok, "reason": reason, "verdict": "pass" if ok else "fail"})
    return 0 if ok else 1


def _cmd_companion_mutate(args, argv) -> int:
    _, basis = _load_system_basis(args.type, args.basis)
    try:
        matrix = load_matrix(_read_file(args.matrix))
    except FormatError as exc:
        _die(f"{args.matrix}: {exc}")
    k = _vertex(matrix.n, args.vertex)
    direction = "outward" if args.outward else "inward"
    try:
        mutated = mutate_companion(basis, k, diagram_of(matrix), direction)
    except ValueError as exc:
        _die(str(exc))
    return _emit(dump_basis(mutated.vectors))


def _cmd_signed_graph(args, argv) -> int:
    _, basis = _load_system_basis(args.type, args.basis)
    try:
        graph = signed_graph(companion_matrix(basis))
    except ValueError as exc:
        _die(str(exc))
    return _emit(dump_signed_graph(graph))


def _cmd_switch(args, argv) -> int:
    try:
        graph = load_signed_graph(_read_file(args.file))
    except FormatError as exc:
        _die(f"{args.file}: {exc}")
    try:
        chosen = [int(tok) for tok in args.in_set.split(",") if tok.strip()]
    except ValueError:
        _die(f"bad --in-set {args.in_set!r}; expected comma-separated vertices")
    k = _vertex(graph.n, args.vertex)
    in_set = [_vertex(graph.n, i) for i in chosen]
    try:
        switched = local_switch(graph, k, in_set)
    except ValueError as exc:
        _die(str(exc))
    return _emit(dump_signed_graph(switched))


# ---------------------------------------------------------------- export


def _generic_fp(pres: Presentation) -> str:
    lines = [f"F := FreeGroup({pres.n});", "rels := ["]
    body = []
    for rel in pres.relations:
        word = "*".join(f"s{x + 1}" for x in rel.word)
        body.append(f"  ({word})^{rel.exponent}")
    lines.append(",\n".join(body))
    lines.append("];")
    return "\n".join(lines) + "\n"


def _cmd_export(args, argv) -> int:
    try:
        pres = load_presentation(_read_file(args.file))
    except FormatError as exc:
        _die(f"{args.file}: {exc}")
    if args.format == "native":
        return _emit(dump_presentation(pres))
    return _emit(_generic_fp(pres))


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    d.add_argument("--cap", type=int, default=None)
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_diagram_class)
    d = dsub.add_parser("type", help="identify the Dynkin type of the mutation class")
    d.add_argument("file")
    d.add_argument("--cap", type=int, default=None)
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
    p.add_argument("--strategy", choices=("direct", "tower"), default="direct")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("verify-mutation", help="certify that mutation preserves the presented group")
    p.add_argument("file", metavar="diagram-file")
    p.add_argument("vertex", type=int, metavar="k")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_verify_mutation)

    p = sub.add_parser("verify-type", help="compare a diagram's group order against its identified type")
    p.add_argument("file", metavar="diagram-file")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_verify_type)

    p = sub.add_parser("theorem-a", help="check the whole mutation class against the type's reflection-group order")
    p.add_argument("target", metavar="type-or-matrix-file")
    p.add_argument("--sample", default="all", help="'all' or a member count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=None)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args, argv)


if __name__ == "__main__":
    sys.exit(main())
