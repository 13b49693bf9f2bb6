"""The benchmark's workloads: one pass of each, with exact output checks.

Every call into the package goes through a module attribute
(``census.survey``, ``cli.main``, ...), so a traced pass sees the wrappers
that ``tracer.Tracer`` installs.  Each public call a pass makes is timed on
its own; a failed check or a raised exception counts against the pass and
never stops it.  A ``batch`` workload's request is its whole pass, since its
user waits for the whole verification.  The scans are exhaustive, so the
seed only orders their grid points; it draws the forms workload's requests.
``nominal_s`` is about one pass on
a 2-core Xeon at the first benchmarked commit; it only sets how many passes
a run of ``--seconds`` makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from time import perf_counter
from typing import NamedTuple

from prmquadrics import census, cli, formexpr, gf, prm, projspace, quadric
from prmquadrics.quadric import QuadricClass

C = QuadricClass
WORKERS = 2
TESTERS = ("characterization", "interpolation", "exhaustive")

# Strict point-set containments per admissible shape, from exhaustive scans.
EXPECTED_CONTAINMENT = {
    (2, 2): {"rank3_in_hyperplane_pair": 168},
    (3, 2): {"rank3_in_hyperplane_pair": 702},
    (2, 4): {
        "elliptic4_in_hyperbolic4": 78_120,
        "elliptic4_in_hyperplane_pair": 78_120,
        "rank3_in_hyperplane_pair": 26_040,
    },
    (3, 3): {"rank3_in_hyperplane_pair": 28_080},
}

# Forms workload: each (q, N) gets one block of requests, split evenly over
# its admissible (class, rank) pairs; 132 divides by both 4 and 6 pairs.
FORMS_Q = (7, 9, 16, 25)
FORMS_N = (2, 3)
FORMS_BLOCK = 132

SIZES = {
    "census_serial": {
        "full": {"big": ((2, 4), (3, 3)), "small": ((2, 3), (3, 2))},
        "smoke": {"big": ((2, 2),), "small": ((3, 2),)},
    },
    "containment": {
        "full": {"grid": ((2, 4), (3, 3))},
        "smoke": {"grid": ((2, 2), (3, 2))},
    },
    "forms": {
        "full": {"requests": len(FORMS_Q) * len(FORMS_N) * FORMS_BLOCK},
        "smoke": {"requests": 20},
    },
    "census_parallel": {
        "full": {"census": (2, 4), "containment": (3, 3)},
        "smoke": {"census": (2, 2), "containment": (3, 2)},
    },
}


def monic_count(q: int, n: int) -> int:
    """Forms up to scalar on P^n over GF(q): the size of one exhaustive scan."""
    m = (n + 1) * (n + 2) // 2
    return (q**m - 1) // (q - 1)


def admissible_pairs(n: int) -> list[tuple[QuadricClass, int]]:
    out = [(C.DOUBLE_HYPERPLANE, 1), (C.HYPERPLANE_PAIR, 2), (C.CONJUGATE_PAIR, 2)]
    for r in range(3, n + 2):
        if r % 2:
            out.append((C.PARABOLIC, r))
        else:
            out += [(C.HYPERBOLIC, r), (C.ELLIPTIC, r)]
    return out


def build(spaces) -> None:
    """The set-up a user pays once: fields, projective spaces and codes."""
    for q, n in spaces:
        field = gf.field_from_order(q)
        projspace.projective_space(field, n)
        prm.build_code(field, n)


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(label)


class Pass:
    """One pass: its requests' latencies (as timed, and scaled by the
    machine-speed meter of speed.py), forms handled and checks."""

    def __init__(self, checks: Checks, tracer, meter):
        self.checks = checks
        self.tracer = tracer
        self.meter = meter
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.forms = 0

    def request(self, label: str, fn, *args, forms: int = 1, **kwargs):
        self.forms += forms
        spent = self.meter.spent
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the program failed this request: a failed check
            result = exc
        end = perf_counter()
        raw = end - start - (self.meter.spent - spent)
        self.raw_latencies.append(raw)
        self.latencies.append(raw * self.meter.scale(start, end))
        if isinstance(result, Exception):
            self.checks.expect(False, f"{label}: {type(result).__name__}: {result}")
            return None
        return result


# -- checks shared by the scan workloads --------------------------------------


def _smooth_count(cls: QuadricClass, r: int, q: int) -> int:
    if cls is C.DOUBLE_HYPERPLANE:
        return 1
    if cls is C.HYPERPLANE_PAIR:
        return q * (q + 1) // 2
    if cls is C.CONJUGATE_PAIR:
        return q * (q - 1) // 2
    return census.orbit_count(cls, r, q)


def check_class_totals(checks: Checks, q: int, n: int, totals) -> None:
    if totals is None:
        return
    expected = {
        (cls, r): projspace.gaussian_binomial(n + 1, r, q) * _smooth_count(cls, r, q)
        for cls, r in admissible_pairs(n)
    }
    checks.expect(totals == expected, f"class totals at ({q},{n}) differ from the orbit formulas")
    checks.expect(
        sum(totals.values()) == monic_count(q, n), f"survey at ({q},{n}) misses forms"
    )


def check_serre(checks: Checks, q: int, n: int, result) -> None:
    if result is None:
        return
    bound, max_seen, attained = result
    checks.expect(
        bound == max_seen and attained, f"serre_scan at ({q},{n}) does not hold: {result}"
    )


def check_census(checks: Checks, q: int, n: int, tester: str, table) -> None:
    if table is None:
        return
    closed = census.minimal_count_closed_form(q, n).closed_dict()
    rows = {w: (c, b) for w, c, b in table.rows}
    checks.expect(
        rows == {w: (c, c) for w, c in closed.items()},
        f"{tester} census at ({q},{n}) differs from the closed form: {table.rows}",
    )


def check_containment(checks: Checks, q: int, n: int, pairs) -> None:
    if pairs is None:
        return
    shapes: dict[str, int] = {}
    for pair in pairs:
        shapes[pair.shape] = shapes.get(pair.shape, 0) + 1
    expected = EXPECTED_CONTAINMENT[(q, n)]
    checks.expect(
        shapes == expected, f"containment at ({q},{n}): {shapes}, expected {expected}"
    )


# -- workloads ----------------------------------------------------------------


class CensusSerial:
    """Cold survey, census tables, Serre scan and characterization census at
    the large grid points; all three testers at the small ones."""

    nominal_s = 10.0
    workers = 1
    batch = True

    def __init__(self, size: str, seed: int):
        cfg = SIZES["census_serial"][size]
        self.big = list(cfg["big"])
        random.Random(seed).shuffle(self.big)
        self.small = list(cfg["small"])
        self.spaces = self.big + self.small

    def run(self, p: Pass) -> None:
        census.survey.cache_clear()
        for q, n in self.big:
            forms = monic_count(q, n)
            p.request("survey", census.survey, q, n, forms=forms)
            totals = p.request("class_rank_census", census.class_rank_census, q, n, forms=forms)
            serre = p.request("serre_scan", census.serre_scan, q, n, forms=forms)
            table = p.request(
                "brute_force_census", census.brute_force_census, q, n,
                tester="characterization", forms=forms,
            )
            with p.tracer.paused():
                check_class_totals(p.checks, q, n, totals)
                check_serre(p.checks, q, n, serre)
                check_census(p.checks, q, n, "characterization", table)
        for q, n in self.small:
            for tester in TESTERS:
                table = p.request(
                    "brute_force_census", census.brute_force_census, q, n,
                    tester=tester, forms=monic_count(q, n),
                )
                with p.tracer.paused():
                    check_census(p.checks, q, n, tester, table)


class Containment:
    """Serial strict-containment search with a cold survey cache."""

    nominal_s = 20.0
    workers = 1
    batch = True

    def __init__(self, size: str, seed: int):
        self.grid = list(SIZES["containment"][size]["grid"])
        random.Random(seed).shuffle(self.grid)
        self.spaces = self.grid

    def run(self, p: Pass) -> None:
        census.survey.cache_clear()
        for q, n in self.grid:
            pairs = p.request(
                "verify_containment", census.verify_containment, q, n,
                forms=monic_count(q, n),
            )
            with p.tracer.paused():
                check_containment(p.checks, q, n, pairs)


class CensusParallel:
    """The per-lead-block parallel path of the census and the containment
    search, with the parent re-hydrating containment witnesses."""

    nominal_s = 10.0
    workers = WORKERS
    batch = True

    def __init__(self, size: str, seed: int):
        cfg = SIZES["census_parallel"][size]
        self.census_at = cfg["census"]
        self.containment_at = cfg["containment"]
        self.spaces = [self.census_at, self.containment_at]

    def run(self, p: Pass) -> None:
        q, n = self.census_at
        table = p.request(
            "brute_force_census", census.brute_force_census, q, n,
            workers=WORKERS, forms=monic_count(q, n),
        )
        with p.tracer.paused():
            check_census(p.checks, q, n, "characterization", table)
        q, n = self.containment_at
        pairs = p.request(
            "verify_containment", census.verify_containment, q, n,
            workers=WORKERS, forms=monic_count(q, n),
        )
        with p.tracer.paused():
            check_containment(p.checks, q, n, pairs)


def _random_invertible(field, size: int, rng: random.Random):
    while True:
        mat = [[rng.randrange(field.q) for _ in range(size)] for _ in range(size)]
        if _rank(field, mat) == size:
            return mat


def _rank(field, rows) -> int:
    """Rank by plain elimination over the field's tables (independent of linalg)."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv(m[rank][c])
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                g = field.neg(field.mul(m[i][c], inv))
                m[i] = [field.add(x, field.mul(g, y)) for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _compose(form, t) -> tuple[int, ...]:
    """Coefficients of F(T y), expanded monomial by monomial."""
    field, n = form.field, form.ambient
    add, mul = field.add, field.mul
    monos = quadric.monomials(n)
    out = []
    for k, l in monos:
        acc = 0
        for (i, j), a in zip(monos, form.coeffs):
            if not a:
                continue
            term = mul(t[i][k], t[j][l])
            if k != l:
                term = add(term, mul(t[i][l], t[j][k]))
            acc = add(acc, mul(a, term))
        out.append(acc)
    return tuple(out)


class FormRequest(NamedTuple):
    q: int
    n: int
    cls: QuadricClass
    rank: int
    text: str
    method: str
    minimal: bool


class Forms:
    """A closed loop of one client sending single-form queries: classify,
    canonicalize and test minimality of canonical forms moved by a random
    invertible substitution and a nonzero scalar."""

    nominal_s = 20.0
    workers = 1
    batch = False

    def __init__(self, size: str, seed: int):
        rng = random.Random(seed)
        cells = []
        for q in FORMS_Q:
            for n in FORMS_N:
                pairs = admissible_pairs(n)
                for cls, r in pairs:
                    cells += [(q, n, cls, r)] * (FORMS_BLOCK // len(pairs))
        rng.shuffle(cells)
        self.requests = [
            self._make(rng, *cell) for cell in cells[: SIZES["forms"][size]["requests"]]
        ]
        self.spaces = [(q, n) for q in FORMS_Q for n in FORMS_N]

    @staticmethod
    def _make(rng, q, n, cls, r) -> FormRequest:
        field = gf.field_from_order(q)
        base = quadric.canonical_form(field, n, cls, r)
        t = _random_invertible(field, n + 1, rng)
        lam = rng.randrange(1, q)
        form = quadric.QuadraticForm(field, n, _compose(base, t)).scale(lam)
        irreducible = cls in quadric.ABSOLUTELY_IRREDUCIBLE
        minimal = cls is C.HYPERPLANE_PAIR or (
            irreducible
            and not (r == 3 and q <= 3)
            and not (cls is C.ELLIPTIC and r == 4 and q == 2)
        )
        method = "interp" if cls is C.HYPERPLANE_PAIR or irreducible else "char"
        return FormRequest(q, n, cls, r, formexpr.render_form(form), method, minimal)

    def run(self, p: Pass) -> None:
        for req in self.requests:
            out = p.request("forms", self._serve, req)
            if out is not None:
                with p.tracer.paused():
                    self._check(p.checks, req, *out)

    @staticmethod
    def _serve(req: FormRequest):
        args = [req.text, "--q", str(req.q), "--N", str(req.n)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["classify", *args])
        classified = (status, buf.getvalue())
        form = formexpr.parse_form(req.text, gf.field_from_order(req.q), req.n)
        canonical = (form, quadric.canonicalize(form))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["minimal", *args, "--method", req.method])
        return classified, canonical, (status, buf.getvalue())

    @staticmethod
    def _check(checks: Checks, req: FormRequest, classified, canonical, minimal) -> None:
        where = f"{req.text!r} at q={req.q} N={req.n}"
        got = _response(*classified)
        checks.expect(
            (got.get("class"), got.get("rank")) == (req.cls.value, req.rank),
            f"classify {where}: {got.get('class')} rank {got.get('rank')}, "
            f"generated as {req.cls.value} rank {req.rank}",
        )
        form, result = canonical
        ok = (result.quadric_class, result.rank) == (req.cls, req.rank)
        if ok:
            target = quadric.canonical_form(form.field, req.n, req.cls, req.rank)
            ok = (
                _rank(form.field, result.transform) == req.n + 1
                and _compose(form, result.transform) == target.scale(result.scalar).coeffs
            )
        checks.expect(ok, f"canonicalize {where}: F(T y) != lam * C")
        got = _response(*minimal)
        checks.expect(
            got.get("minimal") is req.minimal,
            f"minimal {where} ({req.method}): {got.get('minimal')}, expected {req.minimal}",
        )


def _response(status: int, text: str) -> dict:
    """A CLI reply as JSON; a failed or garbled reply checks as empty."""
    try:
        return json.loads(text) if status == 0 else {}
    except json.JSONDecodeError:
        return {}


WORKLOADS = {
    "census_serial": CensusSerial,
    "containment": Containment,
    "forms": Forms,
    "census_parallel": CensusParallel,
}
