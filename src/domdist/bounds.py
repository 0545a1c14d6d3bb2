"""Lower bounds on the domination number from distance data.

Every check is an integer comparison in cross-multiplied form (6*gamma >= S3,
not gamma >= S3/6): a check keeps the bound as num/den and the margin
den*gamma - num, and its Fraction value and slack are read from those on
demand.  Equality detection therefore never depends on floating point.
_check alone computes the margin, and copies it into the check's detail
(the diameter bound keeps its own, 3*gamma - (diam + 1)).

The triple bound and the r-subset bound for r = 3 are the same quantity
(6 = 3*2), so report assembly scans the triples once and reports both.
For r >= 4 the r-subset check is exhaustive while C(n, r) is at most
DEFAULT_SUBSET_BUDGET; beyond that it is skipped with reason "budget" and
holds=None, so every holds=True is proved over all r-subsets.

One kernel, _max_pair_sum, finds the largest pair-distance sum over the
r-subsets and the first subset attaining it in itertools.combinations
order, for the triple bound and every r.  Where _packs(n, r) holds it
reads every subset's sum from one byte of one integer, and the witness by
its index into _subsets(n, r); elsewhere it scans the subsets in that
order.  One product per graph packs the sums of every r that packs at its
order: the pair distances DistanceMatrix.pair_dists times a cached table
per order n, laid out r by r in that order.  _packed_product keeps the
last product in a one-entry memo keyed on the order and the pair
distances, so the triple bound and every packed r-subset bound of a
report, which run back to back, read the same bytes.
triple_equality_analysis scans the triples for those that attain
6*gamma, and only when 6*gamma <= 3*diam.

BoundReport.jsonl_line is the one serializer: it writes each report as
one line of sorted-key compact JSON, with the reduced fractions, the small
int lists and the check heads memoised in bounded caches.  A check's head
is its text up to the witness, keyed on its name, num, den, margin and
every key and value of its detail, so the builders are the one place a
detail's keys are written and many graphs share each head (281 at n = 8,
well under the JSONL_MEMO_SIZE the memo keeps).  The boundary-ecc check
and skipped checks are written by one f-string each.

BoundCheck, TripleEquality and BoundReport are named tuples, the records
every report builds per graph: immutable, updated with _replace, equal to
a plain tuple of the same fields, and hashable.  BoundCheck's hash leaves
out its detail dict, which equality still compares; detail is a required
field, so no two checks share one dict.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, starmap
from json.encoder import encode_basestring_ascii  # what json.dumps(s) does for a str s
from operator import add, and_, mul
from typing import NamedTuple, Sequence

from .distance import DistanceMatrix, all_pairs_distances
from .domination import gamma_exact
from .errors import BadR
from .graphs import Graph, encode_graph6

BOUND_DIAMETER = "diameter"
BOUND_TRIPLE = "triple"
BOUND_AVERAGE_DISTANCE = "average-distance"
BOUND_BOUNDARY_ECC = "boundary-ecc"

VIOLATION_TRIPLE_MOD3 = "triple-mod3"  # an equality triple with a distance != 2 (mod 3)
VIOLATION_SPADE = "boundary-ecc-spade"  # the boundary-ecc triple-distance diagnostic

DEFAULT_RS = (3, 4, 5)
DEFAULT_SUBSET_BUDGET = 200_000  # r-subset search runs iff C(n, r) fits
# the r-subset sums are packed only while C(n, 2)*C(n, r) fits: the measured
# crossover of the packed sums and the scan for r = 3, the first r to cross
PACKED_LIMIT = 1 << 17


_R_SUBSET = "r-subset:"


def r_subset_bound_name(r: int) -> str:
    return f"{_R_SUBSET}{r}"


class BoundCheck(NamedTuple):
    """One lower-bound check gamma >= num/den, decided as margin >= 0 where
    margin = den*gamma - num, with its witness; num is None when skipped."""

    name: str
    num: int | None
    den: int
    margin: int | None
    witness: tuple[int, ...]
    detail: dict
    skipped_reason: str | None = None

    def __hash__(self) -> int:
        # a dict cannot be hashed, so detail is left out; equality still compares it
        return hash((self.name, self.num, self.den, self.margin, self.witness,
                     self.skipped_reason))

    @property
    def skipped(self) -> bool:
        return self.num is None

    @property
    def value(self) -> Fraction | None:
        return None if self.num is None else Fraction(self.num, self.den)

    @property
    def slack(self) -> Fraction | None:
        return None if self.num is None else Fraction(self.margin, self.den)

    @property
    def holds(self) -> bool | None:
        return None if self.num is None else self.margin >= 0

    @property
    def equality(self) -> bool:
        return self.margin == 0


class TripleEquality(NamedTuple):
    """A vertex triple attaining 6*gamma, with its pairwise distances mod 3."""

    triple: tuple[int, int, int]
    dists: tuple[int, int, int]
    mod3_ok: bool


def _skipped(name: str, reason: str) -> BoundCheck:
    return BoundCheck(name, None, 1, None, (), {}, reason)


def _check(name: str, gamma: int, num: int, den: int,
           witness: tuple[int, ...], detail: dict) -> BoundCheck:
    """The one place a margin is computed; detail gets it as its last key
    unless it keeps a margin of its own."""
    margin = den * gamma - num
    detail.setdefault("margin", margin)
    return BoundCheck(name, num, den, margin, witness, detail)


def diameter_lb(gamma: int, dm: DistanceMatrix) -> BoundCheck:
    """ceil((diam + 1) / 3) <= gamma, which is 3*gamma >= diam + 1."""
    diam = dm.diam
    return _check(
        BOUND_DIAMETER, gamma, (diam + 3) // 3, 1, dm.diametral_pair,
        {"diam": diam, "margin": 3 * gamma - (diam + 1)},
    )


@cache
def _packs(n: int, r: int) -> bool:
    """Whether _max_pair_sum packs the r-subset sums of order n: iff
    C(n, 2)*C(n, r) <= PACKED_LIMIT and every sum fits one byte.

    An r-subset's sum is at most C(r, 2)*(n-1), each distance being at most
    n-1, and at most W(P_n) = (n^3-n)/6, the largest Wiener index of a
    connected graph of order n; the latter is at most 255 iff n <= 11.
    59 pairs (n, r) pack, all with n <= 18.

    The answer depends on (n, r) alone, so it is cached: one bool per pair
    a process meets, with r <= n.  Callers look it up through the module,
    so a test can replace it.
    """
    return (math.comb(n, 2) * math.comb(n, r) <= PACKED_LIMIT
            and ((n ** 3 - n) // 6 <= 255 or math.comb(r, 2) * (n - 1) <= 255))


def _max_pair_sum(dm: DistanceMatrix, r: int) -> tuple[int, tuple[int, ...]]:
    """Largest pairwise-distance sum over all r-subsets (3 <= r <= n), and
    the lexicographically first r-subset attaining it.

    Where _packs(n, r) the sums are r's bytes of the packed product (see
    _packed_product), and the witness is the subset at the first byte
    holding the maximum.  Elsewhere the subsets are scanned in that order.
    """
    n = dm.n
    if not _packs(n, r):
        return _scan_pair_sums(dm.d, r)
    sums = _packed_product(n, dm.pair_dists)[_packed_table(n)[1][r]]
    best = max(sums)
    return best, _subsets(n, r)[sums.index(best)]


@cache
def _subsets(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Every r-subset of range(n) in itertools.combinations order, the
    order of the packed sums' bytes.

    Only _max_pair_sum's packed path calls it, so it keeps at most the 59
    pairs (n, r) that _packs admits: 13,184 tuples, about 1.1 MB if a
    process meets them all.
    """
    return tuple(combinations(range(n), r))


@lru_cache(maxsize=1)
def _packed_product(n: int, pair_dists: tuple[int, ...]) -> bytes:
    """S(X) for every r-subset X of every r that packs at order n, one byte
    each, r by r in lexicographic order: byte f of sum(d(p) * fields[p])
    over the vertex pairs p, with the table of _packed_table(n), is the sum
    of the subset at byte f.

    The memo keeps one product, keyed on the pair distances themselves, so
    the triple bound and each r-subset bound of one report, which ask for
    it back to back, compute it once, and no caller reads another graph's
    bytes.
    """
    fields, _, size = _packed_table(n)
    return sum(map(mul, pair_dists, fields)).to_bytes(size, "little")


@cache
def _packed_table(n: int) -> tuple[tuple[int, ...], dict[int, slice], int]:
    """The packed table of order n: one int per vertex pair, in the order
    of DistanceMatrix.pair_dists, plus the bytes of each r and the byte
    count.  For each r with _packs(n, r), in increasing order, the table
    holds one byte per r-subset in lexicographic order, and byte f of a
    pair's int is 1 iff the pair lies in the subset at byte f.

    Memory: the cache is filled lazily, so importing the package builds no
    table, and it keeps every table built: the 16 orders that pack, which
    hold the 59 pairs (n, r) that _packs admits, take under 1e6 bytes
    together.
    """
    # byte f of members[v] is 1 iff v is in the subset at byte f, so a
    # pair's int is the AND of its two vertices' ints
    members = [bytearray() for _ in range(n)]
    spans = {}
    size = 0
    for r in range(3, n + 1):
        if not _packs(n, r):
            continue
        spans[r] = slice(size, size + math.comb(n, r))
        for m in members:
            m.extend(bytes(math.comb(n, r)))
        for at, subset in enumerate(combinations(range(n), r), size):
            for v in subset:
                members[v][at] = 1
        size = spans[r].stop
    ints = [int.from_bytes(m, "little") for m in members]
    return tuple(starmap(and_, combinations(ints, 2))), spans, size


def _scan_pair_sums(d: tuple[tuple[int, ...], ...], r: int) -> tuple[int, tuple[int, ...]]:
    """max over r-subsets X of S(X), with the first maximiser.

    Subsets are visited in lexicographic order: each (r-3)-prefix in turn,
    with its partial sum and, per vertex, the summed distance to the
    prefix, so the last three slots are plain nested loops that add O(1)
    per subset.
    """
    n = len(d)
    best = -1
    best_subset: tuple[int, ...] = ()
    zeros = [0] * n
    for prefix in combinations(range(n - 3), r - 3):
        partial = 0
        to_prefix = zeros
        for v in prefix:
            partial += to_prefix[v]
            to_prefix = list(map(add, to_prefix, d[v]))
        for i in range(prefix[-1] + 1 if prefix else 0, n - 2):
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
    return best, best_subset


def best_triple_lb(gamma: int, dm: DistanceMatrix) -> BoundCheck:
    """6*gamma >= max over triples of the three pairwise distances."""
    if dm.n < 3:
        return _skipped(BOUND_TRIPLE, "requires n >= 3")
    s3, triple = _max_pair_sum(dm, 3)
    return _check(BOUND_TRIPLE, gamma, s3, 6, triple, {"pair_sum": s3})


def triple_equality_analysis(gamma: int, dm: DistanceMatrix) -> tuple[TripleEquality, ...]:
    """Every triple attaining 6*gamma, in lexicographic order, each distance
    checked for = 2 (mod 3).

    A witness with a distance not congruent to 2 mod 3 contradicts the
    equality corollary and is treated as fatal by report assembly.
    """
    target = 6 * gamma
    if target > 3 * dm.diam:
        return ()  # each of a triple's three distances is at most diam
    n = dm.n
    d = dm.d
    found = []
    for i in range(n - 2):
        di = d[i]
        for j in range(i + 1, n - 1):
            dj = d[j]
            need = target - di[j]
            for k in range(j + 1, n):
                if di[k] + dj[k] == need:
                    dists = (di[j], di[k], dj[k])
                    found.append(TripleEquality((i, j, k), dists, all(x % 3 == 2 for x in dists)))
    return tuple(found)


def r_subset_lb(gamma: int, dm: DistanceMatrix, r: int) -> BoundCheck:
    """r(r-1)*gamma >= max over r-subsets of the summed pairwise distances.

    Every r-subset is scanned while C(n, r) <= DEFAULT_SUBSET_BUDGET.
    Beyond that the check is skipped with reason "budget" (holds=None): a
    bound is never reported as holding unless all r-subsets were scanned.
    An r that is not an int raises BadR before any cache is keyed on it.
    """
    n = dm.n
    if not isinstance(r, int) or not 3 <= r <= n:
        raise BadR(f"r={r!r} is not an int in 3..{n}")
    if math.comb(n, r) > DEFAULT_SUBSET_BUDGET:
        return _skipped(r_subset_bound_name(r), "budget")
    s_r, subset = _max_pair_sum(dm, r)
    return _r_subset_check(gamma, r, s_r, subset)


def _r_subset_check(gamma: int, r: int, s_r: int, subset: tuple[int, ...]) -> BoundCheck:
    return _check(
        r_subset_bound_name(r), gamma, s_r, r * (r - 1), subset,
        {"r": r, "pair_sum": s_r, "method": "exhaustive"},
    )


def average_distance_lb(gamma: int, dm: DistanceMatrix) -> BoundCheck:
    """n(n-1)*gamma >= W(G); the bound value is the average distance."""
    w = dm.wiener
    return _check(BOUND_AVERAGE_DISTANCE, gamma, w, dm.n * (dm.n - 1), (), {"wiener": w})


def boundary_ecc_lb(gamma: int, dm: DistanceMatrix) -> BoundCheck:
    """2*gamma >= ecc(B) + 1, plus the triple-distance diagnostic behind it.

    When the boundary is a proper subset, a diametral pair (x, y) and the
    set-eccentricity witness z must satisfy d(x,y)+d(x,z)+d(y,z) >= 3R+1;
    the diagnostic records that sum.
    """
    bi = dm.boundary_info
    r_ecc = bi.ecc_of_boundary
    detail: dict = {"R": r_ecc, "boundary": bi.boundary, "z": bi.witness}
    if len(bi.boundary) < dm.n:
        x, y = dm.diametral_pair
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
    return _check(BOUND_BOUNDARY_ECC, gamma, r_ecc + 1, 2, (bi.witness,), detail)


class BoundReport(NamedTuple):
    """Everything verified about one graph: gamma, all checks, equality
    triples, and violations: the name of every failure, in check order."""

    graph6: str
    n: int
    gamma: int
    gamma_witness: tuple[int, ...]
    checks: tuple[BoundCheck, ...]
    triple_equalities: tuple[TripleEquality, ...]
    violations: tuple[str, ...]

    @property
    def fatal(self) -> bool:
        return bool(self.violations)

    def check(self, name: str) -> BoundCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def jsonl_line(self) -> str:
        """The report as one line of compact JSON with sorted keys.

        Written directly in the key order and spacing of
        json.dumps(..., sort_keys=True, separators=(",", ":")), which the
        tests hold it to.  Skipped checks and the boundary-ecc check are
        one f-string each; every other check is its memoised head
        (_head_jsonl, keyed on its name, num, den, margin and every detail
        key and value) and its witness.  A key added in boundary_ecc_lb
        must be added to its f-string and to test_boundary_ecc_detail_keys.
        The skip reasons go through json.dumps and the graph id through the
        escape json.dumps uses for a str, so their escaping is the same;
        every other string is one of this module's ASCII constants.  Each
        record is unpacked in field order, which costs less than reading
        its fields one by one.
        """
        graph6, n, gamma, gamma_witness, checks, triple_equalities, violations = self
        bounds = []
        for name, num, den, margin, witness, d, skipped_reason in checks:
            if num is None:
                bounds.append(f'{{"bound":"{name}","reason":{json.dumps(skipped_reason)},'
                              f'"skipped":true}}')
            elif name == BOUND_BOUNDARY_ECC:
                spade = d["spade"]
                if spade is not None:
                    spade = (f'{{"ok":{"true" if spade["ok"] else "false"},"sum":{spade["sum"]},'
                             f'"threshold":{spade["threshold"]},"x":{spade["x"]},'
                             f'"y":{spade["y"]},"z":{spade["z"]}}}')
                detail = (f'{{"R":{d["R"]},"boundary":{_ints_jsonl(d["boundary"])},'
                          f'"margin":{d["margin"]},"spade":{spade or "null"},"z":{d["z"]}}}')
                bounds.append(
                    f'{{"bound":"{name}","detail":{detail},'
                    f'"equality":{"true" if margin == 0 else "false"},'
                    f'"holds":{"true" if margin >= 0 else "false"},'
                    f'"skipped":false,"slack":{_frac_jsonl(margin, den)},'
                    f'"value":{_frac_jsonl(num, den)},"witness":{_ints_jsonl(witness)}}}'
                )
            else:
                head = _head_jsonl(name, num, den, margin, *d, *d.values())
                bounds.append(f"{head}{_ints_jsonl(witness)}}}")
        triples = ",".join(
            f'{{"dists":{_ints_jsonl(dists)},"mod3_ok":{"true" if mod3_ok else "false"},'
            f'"triple":{_ints_jsonl(triple)}}}'
            for triple, dists, mod3_ok in triple_equalities
        )
        return (
            f'{{"bounds":[{",".join(bounds)}],"fatal":{"true" if violations else "false"},'
            f'"gamma":{gamma},"gamma_witness":{_ints_jsonl(gamma_witness)},'
            f'"graph":{encode_basestring_ascii(graph6)},"n":{n},'
            f'"triple_equalities":[{triples}]}}'
        )


# Each memo below keeps at most JSONL_MEMO_SIZE strings: more than the
# distinct fractions, the distinct witnesses and boundaries, or the 281
# distinct check heads of all connected graphs of order 8.
JSONL_MEMO_SIZE = 2048


@lru_cache(maxsize=JSONL_MEMO_SIZE)
def _head_jsonl(name: str, num: int, den: int, margin: int, *detail) -> str:
    """A check's line text up to its witness's value: what json.dumps
    writes of its fields, with detail its detail's keys, then their values.

    The text is made from these arguments alone, so the memo key holds
    every value the head prints.  Keys compare with ==, so a detail value
    10.0 gets the head cached for 10; the builders store ints and strs.
    """
    half = len(detail) // 2
    text = json.dumps({
        "bound": name,
        "detail": dict(zip(detail[:half], detail[half:])),
        "equality": margin == 0,
        "holds": margin >= 0,
        "skipped": False,
        "slack": _lowest_terms(margin, den),
        "value": _lowest_terms(num, den),
        "witness": None,
    }, sort_keys=True, separators=(",", ":"))
    return text.removesuffix("null}")


def _lowest_terms(num: int, den: int) -> dict:
    # num/den in lowest terms, as Fraction(num, den) has it (den > 0)
    g = math.gcd(num, den)
    return {"den": den // g, "num": num // g}


@lru_cache(maxsize=JSONL_MEMO_SIZE)
def _frac_jsonl(num: int, den: int) -> str:
    return json.dumps(_lowest_terms(num, den), separators=(",", ":"))


@lru_cache(maxsize=JSONL_MEMO_SIZE)
def _ints_jsonl(xs: tuple[int, ...]) -> str:
    return f'[{",".join(map(str, xs))}]'


def assemble_report(
    g: Graph,
    rs: Sequence[int] = DEFAULT_RS,
    graph_id: str | None = None,
) -> BoundReport:
    """Solve gamma and run every configured check; any failure marks it fatal.

    The graph id is encoded first, so a graph that graph6 cannot name
    raises InvalidGraph6 before any search; then an r that is not an int
    >= 3 raises BadR, before any cache or sort sees it.
    """
    if graph_id is None:
        graph_id = encode_graph6(g)
    for r in rs:
        if not isinstance(r, int) or r < 3:
            raise BadR(f"configured r={r!r} is not an int >= 3")
    dm = all_pairs_distances(g)
    result = gamma_exact(g)
    gamma = result.gamma

    triple = best_triple_lb(gamma, dm)
    checks = [diameter_lb(gamma, dm), triple]
    for r in sorted(set(rs)):
        if r > g.n:
            checks.append(_skipped(r_subset_bound_name(r), f"r={r} exceeds n={g.n}"))
        elif r == 3:
            # the r = 3 scan is the triple scan just made, at every order
            checks.append(_r_subset_check(gamma, 3, triple.num, triple.witness))
        else:
            checks.append(r_subset_lb(gamma, dm, r))
    checks.append(average_distance_lb(gamma, dm))
    boundary = boundary_ecc_lb(gamma, dm)
    checks.append(boundary)

    equalities = triple_equality_analysis(gamma, dm)

    # the fields holds reads, without a property call per check
    violations = [c.name for c in checks if c.num is not None and c.margin < 0]
    if any(not t.mod3_ok for t in equalities):
        violations.append(VIOLATION_TRIPLE_MOD3)
    spade = boundary.detail["spade"]
    if spade is not None and not spade["ok"]:
        violations.append(VIOLATION_SPADE)

    return BoundReport(
        graph6=graph_id,
        n=g.n,
        gamma=gamma,
        gamma_witness=result.witness,
        checks=tuple(checks),
        triple_equalities=equalities,
        violations=tuple(violations),
    )
