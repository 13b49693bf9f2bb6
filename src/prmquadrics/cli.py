"""Command-line interface.

Subcommands analyze a single form (classify, points, minimal), describe the
code (code info), or drive the exhaustive verifications (census, verify).
Output is JSON by default or an aligned table; censuses also emit CSV.
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
from .quadric import InternalInconsistency, QuadricError, classify, point_set

METHODS = {
    "char": "characterization",
    "interp": "interpolation",
    "exhaustive": "exhaustive",
}

MAX_Q = 25
MAX_POINTS = 500_000
# Survey rows: just above (5,3)'s 2,441,406, a 144 MB peak before its first scan.
MAX_BUDGET = 2_500_000


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    def __init__(self, payload):
        super().__init__("verification failed")
        self.payload = payload


class _Parser(argparse.ArgumentParser):
    """Raises its errors, and its subparsers', as one-line ``UsageError``s."""

    def error(self, message):
        if message.startswith("the following arguments are required: form"):
            message += " (a form starting with '-' goes after '--')"
        raise UsageError(message)


def _emit(args, payload: dict, table_lines=None, csv_text=None) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
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
    payload.update(verdict.to_json())
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
        payload = {"target": "exception", "holds": verify_exception_example()}
    elif args.target == "pencil":
        profile = conic_interpolation_profile(args.q, budget=args.budget)
        expected_reducible = {2: 6, 3: 3}.get(args.q, 0)
        payload = {
            "target": "pencil",
            "q": args.q,
            "members": profile.members,
            "reducible": profile.reducible,
            "irreducible": profile.irreducible,
            "holds": (
                profile.irreducible == 1
                and profile.reducible == expected_reducible
                and profile.members == profile.reducible + profile.irreducible
            ),
        }
    elif args.target == "serre":
        bound, max_seen, attained = serre_scan(args.q, args.N, budget=args.budget)
        payload = {
            "target": "serre",
            "q": args.q,
            "N": args.N,
            "bound": bound,
            "max_observed": max_seen,
            "attained_only_by_hyperplane_pairs": attained,
            "holds": attained,
        }
    else:
        violations = verify_containment(args.q, args.N, workers=args.workers, budget=args.budget)
        payload = {
            "target": "containment",
            "q": args.q,
            "N": args.N,
            "holds": True,
            "violation_count": len(violations),
            "shapes": violations.shape_counts(),
            "violations_shown": min(len(violations), args.limit),
            "violations": [v.to_json() for v in violations[: args.limit]],
        }
    _emit(args, payload)
    if not payload["holds"]:
        raise VerificationFailure(payload)
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prmquadrics",
        description="Quadric classification and order-2 projective Reed-Muller "
        "minimal-codeword verification over small finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "q": {"help": "field order (prime power <= 25)"},
        "N": {"help": "ambient projective dimension"},
        "workers": {"default": os.cpu_count() or 1},
        "budget": {"help": "max survey rows: (q**dim - 1)/(q - 1) forms up to scalar"},
        "limit": {"default": 10, "help": "violations to include in the dump"},
    }

    def common(p, formats=("json", "table"), reads=("q", "N"), required=True):
        for flag in reads:
            p.add_argument(f"--{flag}", type=int, required=required, **flags[flag])
        p.add_argument("--format", choices=formats, default="json")
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
    for flag in ("workers", "budget"):
        p.add_argument(f"--{flag}", type=int, **flags[flag])
    common(p, ("json", "csv", "table"))
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run an exhaustive verification")
    targets = p.add_subparsers(dest="target", required=True)
    for target, reads in (
        ("containment", ("q", "N", "workers", "budget", "limit")),
        ("exception", ()),
        ("serre", ("q", "N", "budget")),
        ("pencil", ("q", "budget")),
    ):
        t = targets.add_parser(target)
        common(t, reads=reads, required=False)
        # q and N also where unread, for main's bound checks.
        t.set_defaults(func=cmd_verify, q=2, N=3)

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
    try:
        args = build_parser().parse_args(argv)
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
        budget = getattr(args, "budget", None)
        if budget is not None and budget < 1:
            raise UsageError(f"--budget must be at least 1, got {budget}")
        if (budget or 0) > MAX_BUDGET:
            raise UsageError(
                f"--budget {args.budget} exceeds the supported bound {MAX_BUDGET}"
            )
        return args.func(args)
    except SystemExit as exc:  # --help: errors raise UsageError instead
        return exc.code
    except VerificationFailure as exc:
        payload = exc.payload
    except (InadmissibleViolation, InternalInconsistency) as exc:
        # A check inside the library failed: the theorem, or a counting identity.
        payload = {"target": getattr(args, "target", args.command), "error": str(exc)}
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
    sys.stderr.write(f"verification failed: {json.dumps(payload, sort_keys=True)}\n")
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
