"""Mutants the suite must kill, each run in a copy of the project.

Each case is (file, old text, new text, test node ids): the copy gets the
edit, and pytest run on those ids in the copy must report a failed test.
The copy holds ``src/``, ``tests/`` and ``pyproject.toml``, so pyproject's
``pythonpath = ["src"]`` imports the mutated package, not this one.  The
cases are marked ``slow``: run them with PRMQUADRICS_SLOW=1.  That each
old text occurs once in its file, and that each named test is defined in
its file, is checked on every run.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The GF(2) containment scan, in its span order: against the naive pair
# lists, and the whole (2,4) pair list against its digest.
_GF2_SCAN_TESTS = [
    "tests/test_census.py::test_containment_allpairs_crosscheck_matches",
    "tests/test_census.py::test_containment_pair_lists_are_pinned[2-4-dade2b70ac7797313ad577da36e6a473]",
]

# The bit-sliced survey, against the single-form path.
_SURVEY_TESTS = [
    "tests/test_prm.py::test_survey_equals_the_single_form_path[2-3]",
    "tests/test_prm.py::test_survey_equals_the_single_form_path[3-2]",
]

# The bit-sliced interpolation census, against the per-row kernel; past
# q = 3, where an element need not be its own inverse, -x need not be x's
# planes reversed, and the add is built from the field's tables.
_SLICED_TESTS = [
    "tests/test_census.py::test_census_testers_agree_row_by_row[2-3]",
    "tests/test_census.py::test_census_testers_agree_row_by_row[3-2]",
]
_SLICED_Q4_TESTS = [
    "tests/test_census.py::test_census_testers_agree_row_by_row[4-2]",
    "tests/test_census.py::test_census_testers_agree_row_by_row[8-2]",
]

# The point view and the block-built lanes, against the tuple build.
_POINT_VIEW_TESTS = [
    "tests/test_projspace.py::test_points_and_lanes_equal_the_tuple_build[3-2]",
    "tests/test_projspace.py::test_points_and_lanes_equal_the_tuple_build[4-2]",
]

# The block-built evaluation lane, against the m-lane sum.
_LANE_TESTS = [
    "tests/test_quadric.py::test_evaluation_lane_equals_the_monomial_sum[3-2]",
    "tests/test_quadric.py::test_evaluation_lane_equals_the_monomial_sum[4-2]",
]

# The sample certificate of the interpolation tester, against the full kernel.
_CERTIFICATE_TESTS = [
    "tests/test_prm.py::test_sample_certificate_keeps_verdicts_and_witnesses[7-3]",
    "tests/test_prm.py::test_sample_certificate_keeps_verdicts_and_witnesses[16-3]",
]

# The closed forms against the code's power moments.
_MOMENT_TESTS = ["tests/test_census.py::test_zero_counts_have_the_codes_power_moments"]

MUTANTS = {
    "witness_unscaled": (
        "src/prmquadrics/census.py",
        "return self._decode(self.witness_row).scale(self.scalar)",
        "return self._decode(self.witness_row)",
        ["tests/test_acceptance.py::test_criterion_5_containment_theorem"],
    ),
    "exhaustive_witness_last": (
        "src/prmquadrics/prm.py",
        "min(index.row_numbers(hits))",
        "max(index.row_numbers(hits))",
        ["tests/test_cli.py::test_stdout_bytes_are_pinned"],
    ),
    "projective_index_sign_dropped": (
        "src/prmquadrics/quadric.py",
        "return n - (rk + 1) // 2 - (WITT_SIGN[cls] < 0)",
        "return n - (rk + 1) // 2",
        ["tests/test_acceptance.py::test_criterion_8d_projective_index_bruteforce"],
    ),
    "serre_bound_unmet": (
        "src/prmquadrics/census.py",
        "return bound, max_seen, only_pairs and max_seen == bound",
        "return bound, max_seen, only_pairs",
        [
            "tests/test_census.py::test_unmet_serre_bound_is_not_attained",
            "tests/test_cli.py::test_unmet_serre_bound_exits_1",
        ],
    ),
    "cone_shape_past_q_3": (
        "src/prmquadrics/census.py",
        "if rk == 3 and q <= 3 and wcls is QuadricClass.HYPERPLANE_PAIR:",
        "if rk == 3 and wcls is QuadricClass.HYPERPLANE_PAIR:",
        ["tests/test_census.py::test_no_cone_in_a_hyperplane_pair_past_q_3"],
    ),
    "unequal_conic_profiles_accepted": (
        "src/prmquadrics/census.py",
        "if len(profiles) != 1:",
        "if not profiles:",
        ["tests/test_cli.py::test_unequal_conic_profiles_exit_1"],
    ),
    "gf2_key_without_lead": (
        "src/prmquadrics/census.py",
        "key=lambda x: (-x.bit_length(), x)",
        "key=lambda x: x",
        _GF2_SCAN_TESTS,
    ),
    "gf2_free_column_from_lead": (
        "src/prmquadrics/census.py",
        "free = reduce(or_, map(and_, held, map(neg, held)))",
        "free = reduce(or_, (1 << (v.bit_length() - 1) for v in held))",
        _GF2_SCAN_TESTS,
    ),
    "gf2_row_without_lead_bit": (
        "src/prmquadrics/prm.py",
        "map((1 << k).__or__, tails)",
        "map((1 << k >> 1).__or__, tails)",
        _GF2_SCAN_TESTS,
    ),
    "bulk_query_not_strict": (
        "src/prmquadrics/prm.py",
        "repeat(at_least[c + 1])",
        "repeat(at_least[c])",
        [
            "tests/test_census.py::test_census_tester_independence_small",
            "tests/test_census.py::test_containment_allpairs_crosscheck_matches",
        ],
    ),
    "shape_table_all_cones": (
        "src/prmquadrics/census.py",
        "(*SHAPES, None).index(_admissible_shape(q, cls, rk, *label[:2]))",
        'SHAPES.index("rank3_in_hyperplane_pair")',
        [_GF2_SCAN_TESTS[1]],
    ),
    "sliced_pivot_line_kept": (
        "src/prmquadrics/prm.py",
        "scale(pivot, [head[s] * ones[left] for s in negate])",
        "scale(pivot, [(head[s] & ~hit) * ones[left] for s in negate])",
        _SLICED_TESTS,
    ),
    "gf3_sum_without_equal_terms": (
        "src/prmquadrics/prm.py",
        "both = (a1 | a2) & (b1 | b2)",
        "both = a1 & b2 | a2 & b1",
        _SURVEY_TESTS[1:],
    ),
    "inverse_taken_as_identity": (
        "src/prmquadrics/prm.py",
        "invert = [field._inv[e] - 1 for e in nonzero]",
        "invert = [e - 1 for e in nonzero]",
        _SLICED_Q4_TESTS,
    ),
    "negation_taken_as_reversal": (
        "src/prmquadrics/prm.py",
        "negate = [field._neg[e] - 1 for e in nonzero]",
        "negate = [field.q - 1 - e for e in nonzero]",
        _SLICED_Q4_TESTS,
    ),
    "sum_without_lone_terms": (
        "src/prmquadrics/prm.py",
        "a[c] & zero_b | b[c] & zero_a)",
        "0)",
        _SLICED_Q4_TESTS,
    ),
    "budget_refuses_its_own_size": (
        "src/prmquadrics/prm.py",
        "if rows > budget:",
        "if rows >= budget:",
        ["tests/test_prm.py::test_budget_admits_exactly_the_row_count[2-3]"],
    ),
    "free_counter_without_carry": (
        "src/prmquadrics/prm.py",
        "        twice |= free & missed\n",
        "",
        _SLICED_TESTS,
    ),
    "planes_without_lead_block": (
        "src/prmquadrics/prm.py",
        "planes.append(pattern | ones << start if e == 1 else pattern)",
        "planes.append(pattern)",
        _SURVEY_TESTS,
    ),
    "planes_not_reversed_for_2": (
        "src/prmquadrics/prm.py",
        "[planes[mul[inv[v]][c] - 1] for c in nonzero]",
        "planes",
        _SURVEY_TESTS,
    ),
    "scaled_planes_not_inverted": (
        "src/prmquadrics/prm.py",
        "planes[mul[inv[v]][c] - 1]",
        "planes[mul[v][c] - 1]",
        [
            "tests/test_prm.py::test_survey_equals_the_single_form_path[4-2]",
            "tests/test_prm.py::test_survey_equals_the_single_form_path[5-2]",
        ],
    ),
    "pattern_not_cut_at_block": (
        "src/prmquadrics/prm.py",
        "            pattern &= (1 << start) - 1\n",
        "",
        _SURVEY_TESTS,
    ),
    "meet_without_bucket_0": (
        "src/prmquadrics/prm.py",
        "zip(at_r, diagonal[t])",
        "zip(at_r[1:], diagonal[t][1:])",
        _SURVEY_TESTS[:1],
    ),
    "diagonal_read_off_cross_term": (
        "src/prmquadrics/prm.py",
        "mono.index((t, t))",
        "mono.index((0, t))",
        _SURVEY_TESTS[:1],
    ),
    "orbit_sign_flipped": (
        "src/prmquadrics/census.py",
        "value *= q ** (r // 2) + sign",
        "value *= q ** (r // 2) - sign",
        ["tests/test_acceptance.py::test_criterion_6_orbit_counts"],
    ),
    "parabolic_scalar_dropped": (
        "src/prmquadrics/quadric.py",
        "lam = f[rest[0]]",
        "lam = 1",
        ["tests/test_acceptance.py::test_criterion_8c_canonicalization_identity"],
    ),
    "rank_block_shift_strict": (
        "src/prmquadrics/projspace.py",
        "i += a * size + (a >= one)",
        "i += a * size + (a > one)",
        _POINT_VIEW_TESTS,
    ),
    "point_read_one_byte_early": (
        "src/prmquadrics/projspace.py",
        "tuple(column[i] for column in self.columns)",
        "tuple(column[i - 1] for column in self.columns)",
        _POINT_VIEW_TESTS,
    ),
    "cross_lanes_scaled_by_square": (
        "src/prmquadrics/projspace.py",
        "coded.translate(code.scale[a])",
        "coded.translate(code.scale[mul[a][a]])",
        _POINT_VIEW_TESTS,
    ),
    "block_scaled_by_square": (
        "src/prmquadrics/quadric.py",
        "linear.translate(code.scale[a])",
        "linear.translate(code.scale[field._mul[a][a]])",
        _LANE_TESTS,
    ),
    "certificate_accepts_larger_span": (
        "src/prmquadrics/prm.py",
        "_sample_mask(code.length, halvings))) == 1",
        "_sample_mask(code.length, halvings))) >= 1",
        _CERTIFICATE_TESTS,
    ),
    "sample_not_cut_to_zero_set": (
        "src/prmquadrics/prm.py",
        "zeros & _sample_mask(",
        "_sample_mask(",
        _CERTIFICATE_TESTS,
    ),
    "conic_minimal_at_q_3": (
        "src/prmquadrics/prm.py",
        "3 + 2 * (q <= 3)",
        "3 + 2 * (q < 3)",
        ["tests/test_acceptance.py::test_criterion_4_tester_agreement"],
    ),
    # Survives at prime q, where every element is its own code.
    "decode_left_in_code": (
        "src/prmquadrics/gf.py",
        "bytes.maketrans(codes, bytes(range(q)))",
        "bytes.maketrans(codes, codes)",
        ["tests/test_gf.py::test_lane_code_sums_and_tables[2-2]"],
    ),
    "orbits_swapped_from_rank_4": (
        "src/prmquadrics/census.py",
        "value *= q ** (r // 2) + sign",
        "value *= q ** (r // 2) + (sign if r < 4 else -sign)",
        _MOMENT_TESTS,
    ),
    "hyperplane_pair_count_plus_one": (
        "src/prmquadrics/quadric.py",
        "return projective_size(q, n - 1) + WITT_SIGN[cls] * q ** (n - rk // 2)",
        "return projective_size(q, n - 1) + WITT_SIGN[cls] * q ** (n - rk // 2)"
        " + (cls is QuadricClass.HYPERPLANE_PAIR)",
        _MOMENT_TESTS,
    ),
    "gaussian_binomial_plus_one_at_full_rank": (
        "src/prmquadrics/projspace.py",
        "return num // den",
        "return num // den + (k == n)",
        _MOMENT_TESTS,
    ),
    "point_count_exponent_off_by_one": (
        "src/prmquadrics/quadric.py",
        "WITT_SIGN[cls] * q ** (n - rk // 2)",
        "WITT_SIGN[cls] * q ** (n - 1 - rk // 2)",
        ["tests/test_acceptance.py::test_criterion_1_point_count_law"],
    ),
    "serre_bound_of_conjugate_pair": (
        "src/prmquadrics/census.py",
        "expected_point_count(QuadricClass.HYPERPLANE_PAIR, 2, n, q)",
        "expected_point_count(QuadricClass.CONJUGATE_PAIR, 2, n, q)",
        ["tests/test_acceptance.py::test_criterion_2_serre_bound"],
    ),
    "minimal_count_without_scalars": (
        "src/prmquadrics/census.py",
        "counts.get(w, 0) + (q - 1) * size",
        "counts.get(w, 0) + size",
        ["tests/test_acceptance.py::test_criterion_3_minimal_codeword_census"],
    ),
    "pencil_without_its_conic": (
        "src/prmquadrics/census.py",
        "PencilProfile(w + 1, w, 1)",
        "PencilProfile(w, w, 1)",
        ["tests/test_acceptance.py::test_criterion_7_conic_pencils"],
    ),
    "substitution_overwrites_terms": (
        "src/prmquadrics/quadric.py",
        "coeffs[at[j]] = add[coeffs[at[j]]][times[y]]",
        "coeffs[at[j]] = times[y]",
        ["tests/test_acceptance.py::test_criterion_8a_rank_class_invariance"],
    ),
    "section_drops_a_direction": (
        "src/prmquadrics/quadric.py",
        "transpose(kernel_basis(field, [lvec]))",
        "transpose(kernel_basis(field, [lvec])[1:])",
        ["tests/test_acceptance.py::test_criterion_8b_section_rank_laws"],
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_text_occurs_once(name):
    """Each case's old text occurs exactly once in its file, checked without
    the slow runs, so a refactor cannot leave a case that mutates nothing."""
    path, old, _, _ = MUTANTS[name]
    assert (ROOT / path).read_text().count(old) == 1, f"{name}: {old!r} in {path}"


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_killers_exist(name):
    """Each node id a case names is a test function of its file, checked
    without the slow runs, where a missing id only reads as a survivor."""
    for node in MUTANTS[name][3]:
        path, _, test = node.partition("::")
        function = test.partition("[")[0]
        assert f"def {function}(" in (ROOT / path).read_text(), f"{name}: {node}"


@pytest.mark.slow
@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, tmp_path):
    path, old, new, tests = MUTANTS[name]
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    target = tmp_path / path
    text = target.read_text()
    assert text.count(old) == 1, f"{name}: the old text must occur once in {path}"
    target.write_text(text.replace(old, new))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    # Exit 1: tests ran and one failed; a node id that is not found exits 4.
    assert run.returncode == 1, f"{name} survived (exit {run.returncode}):\n{run.stdout[-2000:]}"
