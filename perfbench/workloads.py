"""The three workloads: seeded CLI requests, grouped into passes.

A pass is the unit a workload repeats in its closed loop, and the unit
wall_s, checks_per_s and records_per_s are measured over:

- oracle-sweep: a mirrored pair of `verify --grid oracle` runs.  Seed 0 runs
  the acceptance grid twice; any other seed draws a sign for each of
  --coeff-max, --c-max and --d-max and runs the grid moved by +1 and by -1
  along them.  The pair does nearly the same work for every seed, so runs
  on different seeds stay comparable while a change tuned to one grid
  still meets a neighbouring one.
- catalog-roundtrip: `catalog export`, `catalog import` of that export with
  a re-export, and `verify --catalog` of the export.
- synth-mix: a block of 16 single `synth` and `table` requests, one from
  each slot in _synth_slots, in seeded order with seeded parameters and
  output formats.  Every block certifies the same number of checks and
  records, so the seed moves only what each request costs.  Each block
  holds one case1 target c = (q+1)/q from each of four q strata up to 320:
  their oracle audit grows as q^2, so those requests set the tail that
  req_p90_s reports.  Within a stratum, q steps through eight equal
  sub-ranges in a seeded order, so every eight blocks cover each stratum
  evenly and the tail does not hang on the luck of a few draws.

Every request carries the check its output must pass (see checks.py).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import checks
from invoke import Invocation

ORACLE_DEFAULTS = {"coeff_max": 6, "c_max": 40, "d_max": 6}
CATALOG_RECORDS = 1833
CASE1_Q_STRATA = ((2, 80), (81, 160), (161, 240), (241, 320))
CASE1_SUB_RANGES = 8
FORMATS = ("table", "json", "csv")
PRIMES = (5, 7, 11, 13)

ORACLE_TIMEOUT_S = 60.0
CATALOG_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Request:
    args: tuple[str, ...]
    timeout_s: float
    check: Callable[[Invocation], checks.Verdict]


@dataclass(frozen=True)
class Workload:
    min_passes: int
    passes: Callable[[int, Path], Iterator[list[Request]]]


# ---------------------------------------------------------------------------
# oracle-sweep


def oracle_grids(seed: int) -> list[dict]:
    if seed == 0:
        return [dict(ORACLE_DEFAULTS), dict(ORACLE_DEFAULTS)]
    rng = random.Random(seed)
    signs = {name: rng.choice((-1, 1)) for name in ORACLE_DEFAULTS}
    return [
        {name: value + side * signs[name] for name, value in ORACLE_DEFAULTS.items()}
        for side in (1, -1)
    ]


def _oracle_request(grid: dict) -> Request:
    expected = checks.oracle_grid_total(grid["coeff_max"])
    return Request(
        args=(
            "verify", "--grid", "oracle", "--out", "json",
            "--coeff-max", str(grid["coeff_max"]),
            "--c-max", str(grid["c_max"]),
            "--d-max", str(grid["d_max"]),
        ),
        timeout_s=ORACLE_TIMEOUT_S,
        check=lambda inv: checks.oracle_sweep(inv, expected),
    )


def oracle_passes(seed: int, run_dir: Path) -> Iterator[list[Request]]:
    pair = [_oracle_request(grid) for grid in oracle_grids(seed)]
    while True:
        yield pair


# ---------------------------------------------------------------------------
# catalog-roundtrip


def catalog_passes(seed: int, run_dir: Path) -> Iterator[list[Request]]:
    rng = random.Random(seed)
    export = run_dir / "catalog.json"
    reexport = run_dir / "catalog.reexport.json"
    while True:
        # A file left by the previous pass must not stand in for a missing one.
        for path in (export, reexport):
            path.unlink(missing_ok=True)
        fmt = rng.choice(("json", "table"))
        yield [
            Request(
                ("catalog", "export", "--out-file", str(export)),
                CATALOG_TIMEOUT_S,
                lambda inv: checks.catalog_export(inv, export, CATALOG_RECORDS),
            ),
            Request(
                ("catalog", "import", "--in", str(export), "--out-file", str(reexport)),
                CATALOG_TIMEOUT_S,
                lambda inv: checks.catalog_import(inv, export, reexport, CATALOG_RECORDS),
            ),
            Request(
                ("verify", "--catalog", str(export), "--out", fmt),
                CATALOG_TIMEOUT_S,
                lambda inv, fmt=fmt: checks.verify_report(inv, fmt)._replace(
                    records=CATALOG_RECORDS
                ),
            ),
        ]


# ---------------------------------------------------------------------------
# synth-mix


def _reduced(rng: random.Random, q_low: int, q_high: int, low: Fraction, high: Fraction) -> Fraction:
    """A random non-integer p/q in lowest terms with low < p/q < high."""
    while True:
        q = rng.randint(q_low, q_high)
        p = rng.randint(math.floor(low * q) + 1, math.ceil(high * q) - 1)
        c = Fraction(p, q)
        if c.denominator == q and low < c < high:
            return c


def _synth(kind: str, n: int, r: int, c: Fraction, fmt: str) -> Request:
    return Request(
        ("synth", "--kind", kind, "--n", str(n), "--r", str(r), "--c", str(c), "--out", fmt),
        REQUEST_TIMEOUT_S,
        lambda inv: checks.synth(inv, kind, c, fmt),
    )


def _unsupported(kind: str, n: int, r: int, c: Fraction, fmt: str) -> Request:
    return Request(
        ("synth", "--kind", kind, "--n", str(n), "--r", str(r), "--c", str(c), "--out", fmt),
        REQUEST_TIMEOUT_S,
        checks.unsupported,
    )


def _table(family: str, ranges: dict[str, range], fmt: str,
           row: Callable[[dict], dict | None]) -> Request:
    """row(params) gives the expected invariant columns, or None when the
    family has no record for those parameters."""
    names = list(ranges)
    expected = []
    for combo in itertools.product(*ranges.values()):
        params = dict(zip(names, combo))
        values = row(params)
        if values is not None:
            expected.append((params, values))
    args = ["table", "--family", family]
    for name, values in ranges.items():
        args += [f"--{name.replace('_', '-')}", f"{values.start}..{values.stop - 1}"]
    return Request(
        tuple(args) + ("--out", fmt),
        REQUEST_TIMEOUT_S,
        lambda inv: checks.table(inv, fmt, expected),
    )


def _index_row(p: int, q: int, low: Fraction, high: Fraction) -> dict | None:
    c = Fraction(p, q)
    if c.denominator != q or not low < c < high:
        return None
    return {"gen_index": c}


def _cone_row(v: dict) -> dict | None:
    if not 0 <= v["d"] < v["m"] * v["rprime"]:
        return None
    value = v["rprime"] - Fraction(v["d"], v["m"])
    return {"gen_index": value, "fano_index": value, "seshadri": value}


def _wps_row(family: str, v: dict) -> dict | None:
    a1, a2 = v["a1"], v["a2"]
    if not (1 <= a1 <= a2 and math.gcd(a1, a2) == 1):
        return None
    if family == "wps3":
        return {"gen_index": Fraction(1, a1), "fano_index": Fraction(1, a1), "seshadri": Fraction(1)}
    return {"gen_index": Fraction(1, a2), "fano_index": Fraction(1, a2), "seshadri": Fraction(a1, a2)}


def _case1_q(rng: random.Random, q_low: int, q_high: int, sub_range: int) -> int:
    """A random q from one of CASE1_SUB_RANGES equal parts of [q_low, q_high]."""
    width = (q_high - q_low + 1) / CASE1_SUB_RANGES
    return rng.randint(q_low + math.floor(sub_range * width),
                       q_low + math.floor((sub_range + 1) * width) - 1)


def _synth_slots(rng: random.Random, case1_sub_ranges: tuple[int, ...]) -> list[Request]:
    def fmt() -> str:
        return rng.choice(FORMATS)

    slots = []

    # pn: integer targets of each kind.
    for kind in ("generalized-index", rng.choice(("fano-index", "seshadri"))):
        n = rng.randint(3, 6)
        r = rng.randint(1, n - 1)
        slots.append(_synth(kind, n, r, Fraction(rng.randint(1, r)), fmt()))

    # hirzebruch: c = (a-1)/a on surfaces.
    a = rng.randint(2, 60)
    slots.append(_synth("generalized-index", 2, 1, Fraction(a - 1, a), fmt()))

    # case2: c in (0, 1) on a bundle over P^(n-1).
    n = rng.randint(3, 6)
    slots.append(_synth("generalized-index", n, rng.randint(1, n - 1),
                        _reduced(rng, 2, 40, Fraction(0), Fraction(1)), fmt()))

    # case1: c = (q+1)/q, one q from each stratum.
    for (q_low, q_high), sub_range in zip(CASE1_Q_STRATA, case1_sub_ranges):
        q = _case1_q(rng, q_low, q_high, sub_range)
        n = rng.randint(3, 5)
        slots.append(_synth("generalized-index", n, rng.randint(2, n - 1),
                            Fraction(q + 1, q), fmt()))

    # cone: non-integer Fano or Seshadri targets up to min(r, n-2).
    n = rng.randint(4, 6)
    r = rng.randint(2, n - 1)
    slots.append(_synth(rng.choice(("fano-index", "seshadri")), n, r,
                        _reduced(rng, 2, 8, Fraction(0), Fraction(min(r, n - 2))), fmt()))

    # wps: wps1 or wps3 (Fano index n-2 + 1/a), wps2 or wps4 (Seshadri).
    n = rng.randint(2, 6)
    slots.append(_synth("fano-index", n, n - 1, n - 2 + Fraction(1, rng.randint(2, 12)), fmt()))
    n = rng.randint(2, 6)
    if n == 2:
        c = _reduced(rng, 2, 12, Fraction(0), Fraction(1))
    else:
        c = _reduced(rng, 2, 8, Fraction(n - 2), Fraction(n - 1))
    slots.append(_synth("seshadri", n, n - 1, c, fmt()))

    # unsupported: an open question, answered with exit 2.
    if rng.random() < 0.5:
        c = _reduced(rng, 3, 20, Fraction(0), Fraction(1))
        while c.numerator == c.denominator - 1:
            c = _reduced(rng, 3, 20, Fraction(0), Fraction(1))
        slots.append(_unsupported("generalized-index", 2, 1, c, fmt()))
    else:
        n = rng.randint(3, 6)
        q = rng.randint(3, 12)
        p = rng.choice([p for p in range(2, q) if math.gcd(p, q) == 1])
        slots.append(_unsupported("fano-index", n, n - 1, n - 2 + Fraction(p, q), fmt()))

    # tables with closed-form columns, four or eight feasible rows each.
    start = rng.randint(2, 40)
    slots.append(_table(
        "hirzebruch", {"a": range(start, start + 8)}, fmt(),
        lambda v: {"gen_index": Fraction(v["a"] - 1, v["a"])},
    ))
    # For a prime q every p in (q, 2q) gives a reduced case1 target in (1, 2)
    # and every p < q a reduced case2 target in (0, 1).
    q = rng.choice(PRIMES)
    r = rng.randint(2, 3)
    p = rng.randint(q + 1, 2 * q - 4)
    slots.append(_table(
        "case1",
        {"n": range(r + 1, r + 2), "r": range(r, r + 1), "p": range(p, p + 4), "q": range(q, q + 1)},
        fmt(), lambda v: _index_row(v["p"], v["q"], Fraction(1), Fraction(v["r"])),
    ))
    q = rng.choice(PRIMES)
    n = rng.randint(3, 5)
    p = rng.randint(1, q - 4)
    slots.append(_table(
        "case2",
        {"n": range(n, n + 1), "r": range(1, 2), "p": range(p, p + 4), "q": range(q, q + 1)},
        fmt(), lambda v: _index_row(v["p"], v["q"], Fraction(0), Fraction(1)),
    ))
    if rng.random() < 0.5:
        rprime = rng.randint(1, 3)
        m = rng.randint(-(-4 // rprime), 6)
        slots.append(_table(
            "cone",
            {"base_dim": range(2, 3), "rprime": range(rprime, rprime + 1), "m": range(m, m + 1),
             "d": range(0, 4)},
            fmt(), _cone_row,
        ))
    else:
        # a1 odd and prime to 3 is coprime to each of a1+1 .. a1+4.
        family = rng.choice(("wps3", "wps4"))
        a1 = rng.choice((5, 7, 11))
        slots.append(_table(
            family, {"a1": range(a1, a1 + 1), "a2": range(a1 + 1, a1 + 5)}, fmt(),
            lambda v: _wps_row(family, v),
        ))
    return slots


def synth_passes(seed: int, run_dir: Path) -> Iterator[list[Request]]:
    rng = random.Random(seed)
    while True:
        orders = [rng.sample(range(CASE1_SUB_RANGES), CASE1_SUB_RANGES) for _ in CASE1_Q_STRATA]
        for sub_ranges in zip(*orders):
            block = _synth_slots(rng, sub_ranges)
            rng.shuffle(block)
            yield block


WORKLOADS = {
    "oracle-sweep": Workload(min_passes=4, passes=oracle_passes),
    "catalog-roundtrip": Workload(min_passes=3, passes=catalog_passes),
    # Seven blocks give 112 requests, so at least ten lie beyond the 90th percentile.
    "synth-mix": Workload(min_passes=7, passes=synth_passes),
}
