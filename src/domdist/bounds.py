"""Lower bounds on the domination number from distance data.

Every check is an integer comparison in cross-multiplied form (6*gamma >= S3,
not gamma >= S3/6), with the bound value also carried as an exact Fraction.
Equality detection therefore never depends on floating point.

The triple bound and the r-subset bound for r = 3 are the same quantity
(6 = 3*2), so report assembly scans the triples once and reports both.
For r >= 4 the r-subset check is exhaustive while C(n, r) is at most
DEFAULT_SUBSET_BUDGET; beyond that it is skipped with reason "budget" and
holds=None, so every holds=True is proved over all r-subsets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Sequence

from .distance import (
    BoundaryInfo,
    DistanceMatrix,
    all_pairs_distances,
    boundary_and_set_ecc,
    wiener_index,
)
from .domination import gamma_exact
from .errors import BadR
from .graphs import Graph, encode_graph6

BOUND_DIAMETER = "diameter"
BOUND_TRIPLE = "triple"
BOUND_AVERAGE_DISTANCE = "average-distance"
BOUND_BOUNDARY_ECC = "boundary-ecc"

DEFAULT_RS = (3, 4, 5)
DEFAULT_SUBSET_BUDGET = 200_000  # r-subset search runs iff C(n, r) fits


def r_subset_bound_name(r: int) -> str:
    return f"r-subset:{r}"


@dataclass(frozen=True)
class BoundCheck:
    """One lower-bound check: value, pass/fail, slack, and equality witnesses."""

    name: str
    value: Fraction | None
    holds: bool | None
    equality: bool
    slack: Fraction | None
    witness: tuple[int, ...]
    detail: dict = field(default_factory=dict)
    skipped_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.holds is None


@dataclass(frozen=True)
class TripleEquality:
    """A vertex triple attaining 6*gamma, with its pairwise distances mod 3."""

    triple: tuple[int, int, int]
    dists: tuple[int, int, int]
    mod3_ok: bool


def _skipped(name: str, reason: str) -> BoundCheck:
    return BoundCheck(
        name=name, value=None, holds=None, equality=False, slack=None,
        witness=(), skipped_reason=reason,
    )


def _check(name: str, gamma: int, num: int, den: int,
           witness: tuple[int, ...], detail: dict) -> BoundCheck:
    value = Fraction(num, den)
    return BoundCheck(
        name=name,
        value=value,
        holds=den * gamma >= num,
        equality=den * gamma == num,
        slack=gamma - value,
        witness=witness,
        detail=detail,
    )


def _first_diametral_pair(dm: DistanceMatrix) -> tuple[int, int]:
    """The lexicographically first pair u < v with d(u, v) = diam."""
    return min(
        (u, v)
        for u in range(dm.n) for v in range(u + 1, dm.n)
        if dm.d[u][v] == dm.diam
    )


def diameter_lb(gamma: int, dm: DistanceMatrix) -> BoundCheck:
    """ceil((diam + 1) / 3) <= gamma, checked as 3*gamma >= diam + 1."""
    diam = dm.diam
    lb = (diam + 3) // 3
    pair = _first_diametral_pair(dm)
    value = Fraction(lb)
    return BoundCheck(
        name=BOUND_DIAMETER,
        value=value,
        holds=3 * gamma >= diam + 1,
        equality=lb == gamma,
        slack=gamma - value,
        witness=pair,
        detail={"diam": diam, "margin": 3 * gamma - (diam + 1)},
    )


def _max_pair_sum(dm: DistanceMatrix, r: int) -> tuple[int, tuple[int, ...]]:
    """Largest pairwise-distance sum over all r-subsets (3 <= r <= n), and
    the lexicographically first r-subset attaining it.

    Subsets are walked in lexicographic order.  A prefix carries its pair
    sum and, per vertex, the summed distance to the prefix, so the last
    three slots are plain nested loops that add O(1) per subset.
    """
    d = dm.d
    n = dm.n
    best = -1
    best_subset: tuple[int, ...] = ()
    prefix: list[int] = []

    def walk(start: int, partial: int, to_prefix: list[int], left: int) -> None:
        nonlocal best, best_subset
        if left > 3:
            for v in range(start, n - left + 1):
                prefix.append(v)
                walk(v + 1, partial + to_prefix[v], list(map(add, to_prefix, d[v])), left - 1)
                prefix.pop()
            return
        for i in range(start, n - 2):
            di = d[i]
            si = partial + to_prefix[i]
            for j in range(i + 1, n - 1):
                dj = d[j]
                sij = si + to_prefix[j] + di[j]
                for k in range(j + 1, n):
                    total = sij + to_prefix[k] + di[k] + dj[k]
                    if total > best:
                        best = total
                        best_subset = (*prefix, i, j, k)

    walk(0, 0, [0] * n, r)
    return best, best_subset


def best_triple_lb(gamma: int, dm: DistanceMatrix) -> BoundCheck:
    """6*gamma >= max over triples of the three pairwise distances."""
    if dm.n < 3:
        return _skipped(BOUND_TRIPLE, "requires n >= 3")
    s3, triple = _max_pair_sum(dm, 3)
    return _check(
        BOUND_TRIPLE, gamma, s3, 6, triple,
        {"pair_sum": s3, "margin": 6 * gamma - s3},
    )


def triple_equality_analysis(gamma: int, dm: DistanceMatrix) -> tuple[TripleEquality, ...]:
    """Every triple attaining 6*gamma, each distance checked for = 2 (mod 3).

    A witness with a distance not congruent to 2 mod 3 contradicts the
    equality corollary and is treated as fatal by report assembly.
    """
    n = dm.n
    d = dm.d
    target = 6 * gamma
    found = []
    for i in range(n - 2):
        di = d[i]
        for j in range(i + 1, n - 1):
            dj = d[j]
            need = target - di[j]
            for k in range(j + 1, n):
                if di[k] + dj[k] == need:
                    dists = (di[j], di[k], dj[k])
                    found.append(TripleEquality(
                        triple=(i, j, k),
                        dists=dists,
                        mod3_ok=all(x % 3 == 2 for x in dists),
                    ))
    return tuple(found)


def r_subset_lb(gamma: int, dm: DistanceMatrix, r: int) -> BoundCheck:
    """r(r-1)*gamma >= max over r-subsets of the summed pairwise distances.

    Every r-subset is scanned while C(n, r) <= DEFAULT_SUBSET_BUDGET.
    Beyond that the check is skipped with reason "budget" (holds=None): a
    bound is never reported as holding unless all r-subsets were scanned.
    """
    n = dm.n
    if r < 3 or r > n:
        raise BadR(f"r={r} outside 3..{n}")
    if math.comb(n, r) > DEFAULT_SUBSET_BUDGET:
        return _skipped(r_subset_bound_name(r), "budget")
    s_r, subset = _max_pair_sum(dm, r)
    return _r_subset_check(gamma, r, s_r, subset)


def _r_subset_check(gamma: int, r: int, s_r: int, subset: tuple[int, ...]) -> BoundCheck:
    return _check(
        r_subset_bound_name(r), gamma, s_r, r * (r - 1), subset,
        {"r": r, "pair_sum": s_r, "method": "exhaustive",
         "margin": r * (r - 1) * gamma - s_r},
    )


def average_distance_lb(gamma: int, g: Graph, dm: DistanceMatrix | None = None) -> BoundCheck:
    """n(n-1)*gamma >= W(G); the bound value is the average distance."""
    w = wiener_index(g, dm)
    den = g.n * (g.n - 1)
    return _check(
        BOUND_AVERAGE_DISTANCE, gamma, w, den, (),
        {"wiener": w, "margin": den * gamma - w},
    )


def boundary_ecc_lb(gamma: int, bi: BoundaryInfo, dm: DistanceMatrix) -> BoundCheck:
    """2*gamma >= ecc(B) + 1, plus the triple-distance diagnostic behind it.

    When the boundary is a proper subset, a diametral pair (x, y) and the
    set-eccentricity witness z must satisfy d(x,y)+d(x,z)+d(y,z) >= 3R+1;
    the diagnostic records that sum.
    """
    r_ecc = bi.ecc_of_boundary
    detail: dict = {"R": r_ecc, "boundary": list(bi.boundary), "z": bi.witness}
    if len(bi.boundary) < dm.n:
        x, y = _first_diametral_pair(dm)
        z = bi.witness
        total = dm.d[x][y] + dm.d[x][z] + dm.d[y][z]
        detail["spade"] = {
            "x": x, "y": y, "z": z,
            "sum": total,
            "threshold": 3 * r_ecc + 1,
            "ok": total >= 3 * r_ecc + 1,
        }
    else:
        detail["spade"] = None
    return _check(
        BOUND_BOUNDARY_ECC, gamma, r_ecc + 1, 2, (bi.witness,),
        detail | {"margin": 2 * gamma - (r_ecc + 1)},
    )


@dataclass(frozen=True)
class BoundReport:
    """Everything verified about one graph: gamma, all checks, equality triples."""

    graph6: str
    n: int
    gamma: int
    gamma_witness: tuple[int, ...]
    checks: tuple[BoundCheck, ...]
    triple_equalities: tuple[TripleEquality, ...]
    fatal: bool

    def check(self, name: str) -> BoundCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def bound_names(self) -> list[str]:
        return [c.name for c in self.checks]

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph6,
            "n": self.n,
            "gamma": self.gamma,
            "gamma_witness": list(self.gamma_witness),
            "bounds": [_check_json(c) for c in self.checks],
            "triple_equalities": [
                {"triple": list(t.triple), "dists": list(t.dists), "mod3_ok": t.mod3_ok}
                for t in self.triple_equalities
            ],
            "fatal": self.fatal,
        }

    def jsonl_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _frac_json(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def _check_json(c: BoundCheck) -> dict:
    if c.skipped:
        return {"bound": c.name, "skipped": True, "reason": c.skipped_reason}
    return {
        "bound": c.name,
        "skipped": False,
        "value": _frac_json(c.value),
        "holds": c.holds,
        "equality": c.equality,
        "slack": _frac_json(c.slack),
        "witness": list(c.witness),
        "detail": c.detail,
    }


def assemble_report(
    g: Graph,
    rs: Sequence[int] = DEFAULT_RS,
    graph_id: str | None = None,
) -> BoundReport:
    """Solve gamma and run every configured check; any failure marks it fatal."""
    dm = all_pairs_distances(g)
    result = gamma_exact(g)
    gamma = result.gamma
    bi = boundary_and_set_ecc(g, dm)

    triple = best_triple_lb(gamma, dm)
    checks = [diameter_lb(gamma, dm), triple]
    for r in sorted(set(rs)):
        if r < 3:
            raise BadR(f"configured r={r} < 3")
        if r > g.n:
            checks.append(_skipped(r_subset_bound_name(r), f"r={r} exceeds n={g.n}"))
        elif r == 3:
            # the r = 3 scan is the triple scan just made, at every order
            checks.append(_r_subset_check(gamma, 3, triple.detail["pair_sum"], triple.witness))
        else:
            checks.append(r_subset_lb(gamma, dm, r))
    checks.append(average_distance_lb(gamma, g, dm))
    checks.append(boundary_ecc_lb(gamma, bi, dm))

    equalities = triple_equality_analysis(gamma, dm)

    fatal = any(c.holds is False for c in checks)
    fatal = fatal or any(not t.mod3_ok for t in equalities)
    spade = checks[-1].detail.get("spade")
    fatal = fatal or (spade is not None and not spade["ok"])

    return BoundReport(
        graph6=graph_id if graph_id is not None else encode_graph6(g),
        n=g.n,
        gamma=gamma,
        gamma_witness=result.witness,
        checks=tuple(checks),
        triple_equalities=equalities,
        fatal=fatal,
    )
