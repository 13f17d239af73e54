"""Workload definitions and the pinned table of exact counts.

A query is a pair (kind, args).  Library kinds call the public `curvecount`
API in-process; the `cli` kind calls `curvecount.cli.run` with a structured
output format.  Every query answers with a list of decimal strings: the
count, followed for a split report by the equivalence of each factor degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

# Published oracles: lines and conics on the quintic, the four Calabi-Yau
# complete intersections, and the two degeneration splits of 2875.  The
# remaining rungs have no published value and are pinned from the seed
# engine.
PUBLISHED = {
    ("conics", 4): "609250",
    ("lines", 4): "2875",
    ("lines-ci", 5, (3, 3)): "1053",
    ("lines-ci", 5, (2, 4)): "1280",
    ("lines-ci", 6, (2, 2, 3)): "720",
    ("lines-ci", 7, (2, 2, 2, 2)): "512",
    ("equivalence", 5, 1, 4): "1275",
    # smooth count, then equivalence(1), (2), (3), (4): 1275+1600, 1300+1575
    ("split", 5, 4): ("2875", "1275", "1300", "1575", "1600"),
}

PINNED_CONICS = {
    6: "21553784182784",
    8: "6879170927773883986896",
}

PINNED_LINES = {
    6: "305093061",
    8: "210776836330775",
    10: "520764738758073845321",
    12: "3381929766320534635615064019",
    14: "47837786502063195088311032392578125",
    16: "1298451577201796592589999161795264143531439",
    18: "61730844370508487817798328189038923397181280384657",
    20: "4798492409653834563672780605191070760393640761817269985515",
    22: "577931181605928522741437103101986550353183051951463923627611016149",
    24: "103291262206554674320037766450167668371820283819177185198371383411865234375",
    28: "9411793474578646052004239844420176337966967636596195404437363886194567804775674028836294787",
}

CI_CASES = ((5, (3, 3)), (5, (2, 4)), (6, (2, 2, 3)), (7, (2, 2, 2, 2)))


def expected(key: tuple) -> tuple[str, ...]:
    """The exact answer of a query, identified by its table key."""
    if key in PUBLISHED:
        value = PUBLISHED[key]
        return value if isinstance(value, tuple) else (value,)
    kind, n = key[0], key[1]
    if kind == "conics":
        return (PINNED_CONICS[n],)
    if kind == "lines":
        return (PINNED_LINES[n],)
    raise KeyError(key)


def line_degree(n: int) -> int:
    """Degree of the hypersurface in P^n whose lines form a finite family."""
    return 2 * n - 3


def _lines_cli(n: int) -> tuple:
    return ("cli", ("lines", "--ambient", str(n), "--degree", str(line_degree(n))))


def _ci_cli(n: int, degrees: tuple[int, ...]) -> tuple:
    return ("cli", ("lines-ci", "--ambient", str(n), "--degrees", ",".join(map(str, degrees))))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cold: bool  # a fresh interpreter per pass, or one long-lived process
    queries: tuple  # ((kind, args), table key) pairs making up one pass
    top: tuple  # table key of the most expensive query of a pass
    needs_cache_dir: bool = False

    def shuffled(self, rng: Random) -> list:
        """One pass: the top rung, then every other query in an order drawn from `rng`.

        The top rung always opens the pass, so that top_rung_s is its time in
        a fresh interpreter on the cold workloads; its time later in a cold
        pass varies with what ran before it.
        """
        rest = [pair for pair in self.queries if pair[1] != self.top]
        return [pair for pair in self.queries if pair[1] == self.top] + rng.sample(rest, len(rest))


CONIC_RUNGS = (4, 6, 8)
COLD_LINE_RUNGS = tuple(range(4, 29, 4))
WARM_LINE_RUNGS = tuple(range(4, 25, 2))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="conics-cold",
            why="the paper's conic count scaled up in a fresh interpreter; the only workload "
            "where projective-bundle products do real work",
            cold=True,
            queries=tuple((("conics", (n,)), ("conics", n)) for n in CONIC_RUNGS),
            top=("conics", CONIC_RUNGS[-1]),
        ),
        Workload(
            name="lines-cold",
            why="Gr(2,N) products with wide integers through the CLI and the disk-cache write "
            "path; no projective bundle",
            cold=True,
            queries=tuple((_lines_cli(n), ("lines", n)) for n in COLD_LINE_RUNGS)
            + tuple((_ci_cli(n, ds), ("lines-ci", n, ds)) for n, ds in CI_CASES)
            + (
                (
                    ("cli", ("--trace", "split-report", "--degree", "5", "--ambient", "4")),
                    ("split", 5, 4),
                ),
            ),
            top=("lines", COLD_LINE_RUNGS[-1]),
            needs_cache_dir=True,
        ),
        Workload(
            name="warm-session",
            why="library use in one process with warm memos: evaluation and multiplication cost "
            "without cache fill",
            cold=False,
            queries=tuple((("conics", (n,)), ("conics", n)) for n in CONIC_RUNGS)
            + tuple((("lines", (n, line_degree(n))), ("lines", n)) for n in WARM_LINE_RUNGS)
            + (
                (("lines-ci", (5, (3, 3))), ("lines-ci", 5, (3, 3))),
                (("equivalence", (5, 1, 4)), ("equivalence", 5, 1, 4)),
                (("split", (5, 4)), ("split", 5, 4)),
            ),
            top=("conics", CONIC_RUNGS[-1]),
        ),
    )
}
