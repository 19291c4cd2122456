"""Workload generator for ``548.exchange2_r`` (Section IV-A of the paper).

The paper's finding for this benchmark: replacing the 27 distributed
seed puzzles with new seeds — even maximally difficult ones — made runs
too short, so all ten Alberta workloads *reuse the 27 SPEC seeds* and a
script simply chooses how many puzzles to process per workload (the
seed file can be swapped by replacing one file).  This generator does
the same: :data:`SPEC_SEEDS` plays the role of the distributed seed
collection (27 puzzles derived from transformed canonical solutions
with varied clue patterns), and workloads select seeds and set the
per-seed generation count.
"""

from __future__ import annotations

import functools

from ..core.registry import register_generator
from ..benchmarks.exchange2 import SudokuInput, _canonical_solution, _transform_solution, solve
from ..core.workload import Workload, WorkloadKind, WorkloadSet
from .base import make_rng, workload

__all__ = [
    "Exchange2WorkloadGenerator",
    "SPEC_SEEDS",
    "make_seed_collection",
    "spec_seeds",
]


def make_seed_collection(n_seeds: int = 27, base_seed: int = 27) -> tuple[str, ...]:
    """Build a seed-puzzle collection (stand-in for SPEC's 27 seeds).

    Each seed: transform the canonical solution, then keep a clue
    pattern of 28-36 cells.  Every produced seed is checked solvable.
    """
    rng = make_rng(base_seed)
    seeds: list[str] = []
    base = _canonical_solution()
    while len(seeds) < n_seeds:
        solution = _transform_solution(base, rng)
        n_clues = rng.randint(28, 36)
        cells = list(range(81))
        rng.shuffle(cells)
        keep = set(cells[:n_clues])
        puzzle = "".join(str(solution[i]) if i in keep else "0" for i in range(81))
        if solve(puzzle) is not None:
            seeds.append(puzzle)
    return tuple(seeds)


@functools.cache
def spec_seeds() -> tuple[str, ...]:
    """The stand-in for the benchmark's distributed 27-seed collection.

    Built on first use rather than at import: building it solves every
    seed, and a run whose workload sets all come from the workload-set
    index never instantiates this generator.
    """
    return make_seed_collection()


def __getattr__(name: str) -> tuple[str, ...]:
    if name == "SPEC_SEEDS":
        return spec_seeds()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@register_generator
class Exchange2WorkloadGenerator:
    """Selects seeds and sets the puzzle count, as the Alberta script."""

    benchmark = "548.exchange2_r"

    def __init__(self, seeds: tuple[str, ...] | None = None):
        self.seeds = spec_seeds() if seeds is None else seeds

    def generate(
        self,
        seed: int,
        *,
        n_seeds: int = 4,
        puzzles_per_seed: int = 2,
        name: str | None = None,
    ) -> Workload:
        if n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        rng = make_rng(seed)
        chosen = tuple(rng.sample(self.seeds, min(n_seeds, len(self.seeds))))
        return workload(
            self.benchmark,
            name or f"exchange2.alberta.s{seed}",
            SudokuInput(seeds=chosen, puzzles_per_seed=puzzles_per_seed),
            kind=WorkloadKind.SCRIPTED,
            seed=seed,
            n_seeds=n_seeds,
            puzzles_per_seed=puzzles_per_seed,
        )

    def alberta_set(self, base_seed: int = 0) -> WorkloadSet:
        """Thirteen workloads as in Table II: 10 Alberta + 3 SPEC-like."""
        ws = WorkloadSet(self.benchmark)
        spec = [
            (6, 3, "exchange2.refrate"),
            (4, 2, "exchange2.train"),
            (2, 1, "exchange2.test"),
        ]
        alberta = [(3 + (i % 4), 1 + (i % 3), f"exchange2.alberta.{i + 1}") for i in range(10)]
        for i, (n_seeds, per_seed, label) in enumerate(spec + alberta):
            w = self.generate(
                base_seed + i * 13 + 1,
                n_seeds=n_seeds,
                puzzles_per_seed=per_seed,
                name=label,
            )
            kind = WorkloadKind.SPEC if i < len(spec) else WorkloadKind.SCRIPTED
            ws.add(
                Workload(
                    name=w.name,
                    benchmark=w.benchmark,
                    payload=w.payload,
                    kind=kind,
                    seed=w.seed,
                    params=w.params,
                )
            )
        return ws
