"""The benchmark's workloads: four ``fmpl verify`` sweeps and their seeded indices.

Each workload fixes a check, a prime range and a worker count.  Its indices
come from the seed: seed 0 gives the default indices below, any other seed
draws one set from the workload's candidates.  The candidates are the
indices of the default's shape (same depth and weight for every index
argument) that do the same work, so that a seed changes the values a sweep
computes but not how much it computes or holds:

* ``main-w6``: the default alone.  The other order, ``-l 1,2``, yields 12
  generators against 13 and peaks near 350 MiB against 390 MiB.
* ``main-w12``: the default alone.  The 100 pairs with depths 4 and 3 and
  weight 6 range from 0.5x to 1.3x the default's 2,167 generators, and none
  is within 10% of it in generators, nonzero-scalar terms over the range,
  distinct zeta indices, distinct li indices and peak RSS at once; the
  closest hold 79-83 MiB against the default's 87 MiB.
* ``eq7-p2k``: the shape (1,1), (2), (1) has a single member.
* ``prop24-wide``: every order of the parts of (1,2,1) with ``-i 2``.  The
  cost is the O(p) tables, which depend on depths only; the three orders
  peak within 4% of each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    check: str
    flags: tuple[str, ...]
    candidates: tuple[tuple[str, ...], ...]  # the first is the default
    primes: tuple[int, int]
    jobs: int
    why: str

    def indices(self, seed: int) -> tuple[str, ...]:
        if seed == DEFAULT_SEED:
            return self.candidates[0]
        return random.Random(f"{self.name}/{seed}").choice(self.candidates)

    def argv(self, values: tuple[str, ...], jobs: int | None = None) -> list[str]:
        """The ``fmpl`` arguments of this sweep with the given index values."""
        out = ["verify", self.check]
        for flag, value in zip(self.flags, values):
            out += [flag, value]
        lo, hi = self.primes
        return out + ["--primes", f"{lo}..{hi}", "--jobs", str(self.jobs if jobs is None else jobs)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "main-w6",
            "main",
            ("-l", "-r"),
            (("2,1", "3"),),
            (5, 5000),
            2,
            "667 primes at 2 workers; the p^2 product and window kernel at large p, with the largest primes last",
        ),
        Workload(
            "main-w12",
            "main",
            ("-l", "-r"),
            (("2,1,2,1", "3,1,2"),),
            (5, 200),
            1,
            "about 2,200 generators at 44 small primes; per-term ModPoly construction, eval_zeta and the symbolic build",
        ),
        Workload(
            "eq7-p2k",
            "eq7",
            ("-L", "-M", "-N"),
            (("1,1", "2", "1"),),
            (2000, 2030),
            1,
            "5 primes near 2000 on the three-block evaluator, whose tables take O(c p^2) time and memory",
        ),
        Workload(
            "prop24-wide",
            "prop24",
            ("-i", "-k"),
            (("2", "1,2,1"), ("2", "2,1,1"), ("2", "1,1,2")),
            (5, 15000),
            2,
            "1,752 cheap tasks at 2 workers; per-prime O(p) inverse tables and per-task dispatch",
        ),
    )
}
