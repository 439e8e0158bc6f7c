"""The benchmark's workloads: CLI invocations built from a seed.

Each workload turns a seed into a list of ``Op``s: an argument vector for
``cluster_presents.cli.main`` and an oracle check of its JSON report.  Input
files are written under the given directory; the program sees only them and
the arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from oracles import (
    check_pipeline,
    check_theorem_a,
    check_verify_mutation,
    check_verify_type,
    dynkin_exchange,
    mutate,
)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[dict], int]  # units completed, or raises oracles.WrongAnswer
    known_defect: bool = False  # expected to fail until the program is fixed


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    build: Callable[[int, Path, bool], list[Op]]


# Sizes keep a round of certify near ten seconds and of pipeline near three.
# Every op of a workload costs about the same whatever the seed, and where an
# op's cost depends on its input (a pipeline script's determinants), many
# short ops average it out, so the seeds differ in inputs but not in work.
THEOREM_A_FULL = ("B/C4", "D5", "A6")
THEOREM_A_SAMPLED = (("E6", 30), ("D6", 30))
VERIFY_MUTATION_SMALL = ("A5", "B/C4", "D5", "F4")
VERIFY_MUTATION_PER_TYPE = 8
VERIFY_MUTATION_E6_VERTEX = 1  # fixed: an E6 certificate's cost depends on its vertex
VERIFY_TYPE_MEMBERS = (("A7", 1), ("D6", 2), ("E6", 2))
# No E8 walks: one E8 op's cost ranges over 0.2-2 s with the seed.
PIPELINE_WALKS = (("E6", 24), ("E7", 24))
PIPELINE_WALK_STEPS = 3
PIPELINE_STEPS = 30


def _walk(rng: random.Random, label: str, steps: int) -> list[list[int]]:
    """A random mutation walk from the type's tree seed, never undoing the last step."""
    b = dynkin_exchange(label)
    last = None
    for _ in range(steps):
        k = rng.choice([v for v in range(len(b)) if v != last])
        b, last = mutate(b, k), k
    return b


def _write(workdir: Path, name: str, b: list[list[int]]) -> str:
    path = workdir / name
    path.write_text(f"{len(b)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in b))
    return str(path)


def _theorem_a(seed: int) -> list[Op]:
    ops = [Op(("theorem-a", label), partial(check_theorem_a, label=label, sample=None)) for label in THEOREM_A_FULL]
    for label, sample in THEOREM_A_SAMPLED:
        ops.append(Op(("theorem-a", label, "--sample", str(sample), "--seed", str(seed)),
                      partial(check_theorem_a, label=label, sample=sample)))
    return ops


def _verify_mutation(seed: int, workdir: Path, with_defects: bool) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for label in VERIFY_MUTATION_SMALL:
        for i in range(VERIFY_MUTATION_PER_TYPE):
            b = _walk(rng, label, rng.randint(5, 25))
            k = rng.randint(1, len(b))
            path = _write(workdir, f"vm-{label.replace('/', '')}-{i}.mat", b)
            ops.append(Op(("verify-mutation", path, str(k)), partial(check_verify_mutation, label=label, vertex=k)))
    # The E6 certificate (51,840 points) carries the memory.
    tree = _write(workdir, "vm-E6.mat", dynkin_exchange("E6"))
    ops.append(Op(("verify-mutation", tree, str(VERIFY_MUTATION_E6_VERTEX)),
                  partial(check_verify_mutation, label="E6", vertex=VERIFY_MUTATION_E6_VERTEX)))
    if with_defects:
        # Known defect: the regular representation of W(E7) needs 2,903,040
        # points, so this certificate overflows its cap and the op fails.
        k = rng.randint(1, 7)
        path = _write(workdir, "vm-E7.mat", dynkin_exchange("E7"))
        ops.append(Op(("verify-mutation", path, str(k), "--cap", "250000"),
                      partial(check_verify_mutation, label="E7", vertex=k), known_defect=True))
    return ops


def _verify_type(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for label, count in VERIFY_TYPE_MEMBERS:
        for i in range(count):
            path = _write(workdir, f"vt-{label}-{i}.mat", _walk(rng, label, rng.randint(10, 30)))
            ops.append(Op(("verify-type", path), partial(check_verify_type, label=label)))
    return ops


def _pipeline_op(rng: random.Random, path: str, label: str, b: list[list[int]]) -> Op:
    script = [rng.randint(1, len(b)) for _ in range(PIPELINE_STEPS)]
    return Op(("pipeline", path, ",".join(map(str, script)), "--type", label),
              partial(check_pipeline, matrix=b, script=script))


def _pipeline(seed: int, workdir: Path, with_defects: bool) -> list[Op]:
    rng = random.Random(seed)
    # The D5 standard seed itself: the program's labeled-seed search visits
    # every D5 seed before it returns the empty path.
    seed_d5 = dynkin_exchange("D5")
    ops = [_pipeline_op(rng, _write(workdir, "pl-D5-seed.mat", seed_d5), "D5", seed_d5)]
    for label, count in PIPELINE_WALKS:
        for i in range(count):
            start = b = dynkin_exchange(label)
            while b == start:  # a walk back to the standard seed would search all its seeds
                b = _walk(rng, label, PIPELINE_WALK_STEPS)
            ops.append(_pipeline_op(rng, _write(workdir, f"pl-{label}-{i}.mat", b), label, b))
    return ops


def _certify(seed: int, workdir: Path, with_defects: bool) -> list[Op]:
    """The certifying commands: theorem-a, verify-type and verify-mutation.

    Units are certificates: a class member whose group order theorem-a
    enumerated, a diagram verify-type verified, a mutation certificate."""
    return _theorem_a(seed) + _verify_type(seed, workdir) + _verify_mutation(seed, workdir, with_defects)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify", "certificate", _certify),
        Workload("pipeline", "step", _pipeline),
    )
}
