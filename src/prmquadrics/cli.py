"""Command-line interface.

Subcommands analyze a single form (classify, points, minimal), describe the
code (code info), or drive the exhaustive verifications (census, verify).
Output is JSON by default; censuses also emit CSV or an aligned table.
Exit status: 0 success / verification passed, 1 verification failed,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .census import (
    CensusError,
    InadmissibleViolation,
    brute_force_census,
    conic_interpolation_profile,
    serre_scan,
    verify_containment,
    verify_exception_example,
)
from .formexpr import FormParseError, parse_form, render_form
from .gf import GFError, field_from_order
from .prm import (
    PrmError,
    build_code,
    is_minimal_characterization,
    is_minimal_exhaustive,
    is_minimal_interpolation,
)
from .projspace import ProjSpaceError, bits_to_indices, projective_space
from .quadric import QuadricError, classify, point_set

METHODS = {
    "char": "characterization",
    "interp": "interpolation",
    "exhaustive": "exhaustive",
}

MAX_Q = 25
MAX_POINTS = 500_000


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    def __init__(self, payload):
        super().__init__("verification failed")
        self.payload = payload


def _emit(args, payload: dict, table_lines=None, csv_text=None) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        if csv_text is None:
            raise UsageError(f"subcommand {args.command!r} has no CSV output")
        text = csv_text
    else:
        if table_lines is None:
            table_lines = [f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in payload.items()]
        text = "\n".join(table_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_form_arg(args):
    if args.N < 0:
        raise UsageError(f"--N must be at least 0, got {args.N}")
    field = field_from_order(args.q)
    return field, parse_form(args.form, field, args.N)


def cmd_classify(args) -> int:
    field, form = _parse_form_arg(args)
    report = classify(form)
    payload = {"form": render_form(form), "q": args.q, "N": args.N}
    payload.update(report.to_json())
    _emit(args, payload)
    return 0


def cmd_points(args) -> int:
    field, form = _parse_form_arg(args)
    space = projective_space(field, args.N)
    mask = point_set(form)
    indices = bits_to_indices(mask)
    payload = {
        "form": render_form(form),
        "q": args.q,
        "N": args.N,
        "count": len(indices),
        "indices": indices,
        "points": [space.render_point(space.points[i]) for i in indices],
    }
    _emit(args, payload)
    return 0


def cmd_code(args) -> int:
    code = build_code(field_from_order(args.q), args.N)
    _emit(args, code.to_json())
    return 0


def cmd_minimal(args) -> int:
    field, form = _parse_form_arg(args)
    method = METHODS[args.method]
    if method == "characterization":
        verdict = is_minimal_characterization(form)
    else:
        code = build_code(field, args.N)
        if method == "interpolation":
            verdict = is_minimal_interpolation(code, form)
        else:
            verdict = is_minimal_exhaustive(code, code.encode(form))
    payload = {"form": render_form(form), "q": args.q, "N": args.N}
    payload.update(verdict.to_json(render_form))
    _emit(args, payload)
    return 0


def _census_table_lines(table) -> list[str]:
    lines = [
        f"q={table.q} N={table.n} delta={table.delta} epsilon={table.epsilon}",
        f"{'weight':>8} {'closed':>12} {'brute':>12}",
    ]
    for w, c, b in table.rows:
        lines.append(f"{w:>8} {c:>12} {'-' if b is None else b:>12}")
    return lines


def cmd_census(args) -> int:
    table = brute_force_census(
        args.q, args.N, METHODS[args.method], workers=args.workers, budget=args.budget
    )
    _emit(args, table.to_json(), _census_table_lines(table), table.to_csv())
    if not table.matches():
        raise VerificationFailure(table.to_json())
    return 0


def cmd_verify(args) -> int:
    if args.target == "exception":
        ok = verify_exception_example()
        _emit(args, {"target": "exception", "holds": ok})
        if not ok:
            raise VerificationFailure({"target": "exception"})
        return 0
    if args.target == "pencil":
        profile = conic_interpolation_profile(args.q, budget=args.budget)
        expected_reducible = {2: 6, 3: 3}.get(args.q, 0)
        ok = (
            profile.irreducible == 1
            and profile.reducible == expected_reducible
            and profile.members == profile.reducible + profile.irreducible
        )
        payload = {
            "target": "pencil",
            "q": args.q,
            "members": profile.members,
            "reducible": profile.reducible,
            "irreducible": profile.irreducible,
            "holds": ok,
        }
        _emit(args, payload)
        if not ok:
            raise VerificationFailure(payload)
        return 0
    if args.target == "serre":
        bound, max_seen, attained = serre_scan(args.q, args.N, budget=args.budget)
        payload = {
            "target": "serre",
            "q": args.q,
            "N": args.N,
            "bound": bound,
            "max_observed": max_seen,
            "attained_only_by_hyperplane_pairs": attained,
            "holds": max_seen == bound and attained,
        }
        _emit(args, payload)
        if not payload["holds"]:
            raise VerificationFailure(payload)
        return 0
    if args.target == "containment":
        try:
            violations = verify_containment(
                args.q, args.N, workers=args.workers, budget=args.budget
            )
        except InadmissibleViolation as exc:
            raise VerificationFailure({"target": "containment", "error": str(exc)})
        shapes: dict[str, int] = {}
        for v in violations:
            shapes[v.shape] = shapes.get(v.shape, 0) + 1
        payload = {
            "target": "containment",
            "q": args.q,
            "N": args.N,
            "holds": True,
            "violation_count": len(violations),
            "shapes": shapes,
            "violations_shown": min(len(violations), args.limit),
            "violations": [v.to_json(render_form) for v in violations[: args.limit]],
        }
        _emit(args, payload)
        return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prmquadrics",
        description="Quadric classification and order-2 projective Reed-Muller "
        "minimal-codeword verification over small finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_n=True):
        p.add_argument("--q", type=int, required=True, help="field order (prime power <= 25)")
        if need_n:
            p.add_argument("--N", type=int, required=True, help="ambient projective dimension")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")

    p = sub.add_parser("classify", help="classify a quadratic form")
    p.add_argument("form")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("points", help="rational zero set of a form")
    p.add_argument("form")
    common(p)
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("code", help="code parameters")
    p.add_argument("action", choices=("info",))
    common(p)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("minimal", help="minimality of a codeword given by its form")
    p.add_argument("form")
    p.add_argument("--method", choices=sorted(METHODS), default="char")
    common(p)
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("census", help="minimal-codeword counts, closed form vs brute force")
    p.add_argument("--method", choices=sorted(METHODS), default="char")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument(
        "--budget", type=int, default=None,
        help="max survey rows: (q**dim - 1)/(q - 1) forms up to scalar",
    )
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run an exhaustive verification")
    p.add_argument("target", choices=("containment", "exception", "serre", "pencil"))
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--limit", type=int, default=10, help="violations to include in the dump")
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def _exceeds_max_points(q: int, n: int) -> bool:
    """Whether P^n(F_q) has more than MAX_POINTS points, summing
    1 + q + ... + q^n only until the sum passes the bound."""
    if q < 2:
        return False  # not a field order; field_from_order reports it
    size = 0
    for _ in range(n + 1):
        size = size * q + 1
        if size > MAX_POINTS:
            return True
    return False


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.q > MAX_Q:
            raise UsageError(f"field order {args.q} exceeds the supported bound {MAX_Q}")
        if _exceeds_max_points(args.q, args.N):
            raise UsageError(
                f"P^{args.N} over GF({args.q}) has more than {MAX_POINTS} points"
            )
        if getattr(args, "workers", 1) < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        if getattr(args, "limit", 0) < 0:
            raise UsageError(f"--limit must be at least 0, got {args.limit}")
        return args.func(args)
    except VerificationFailure as exc:
        sys.stderr.write(f"verification failed: {json.dumps(exc.payload, sort_keys=True)}\n")
        return 1
    except (
        UsageError,
        FormParseError,
        GFError,
        ProjSpaceError,
        QuadricError,
        PrmError,
        CensusError,
        OSError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
