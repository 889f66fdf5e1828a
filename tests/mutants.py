"""Mutant catalogue: each entry breaks one rule of the code in a copy of the
project, and names the tests that must then fail.

    python tests/mutants.py

For each entry the script copies src/, tests/, fixtures/, pyproject.toml and
README.md into a temporary directory, requires the entry's old text to occur
exactly once in its file, writes the new text in its place, and runs pytest
on all the named tests there (no `-x`, so each one runs).  pytest runs with
`--assert=plain`: a failing assert still fails its test, and no run rewrites
the asserts of the plugins' modules (Hypothesis's among them) from source
again, as the copy writes no bytecode.  Two mutants run at a time, or one on
a one-core machine.  The mutant is killed when every named
test fails or errs (a parametrized name counts when one of its cases does);
it survives when any named test passes, and any other pytest exit (a test id
that is not found, a collection error) is an error.  The script prints one
line per mutant, then the count killed and the total wall time, and exits 1
if a mutant survives or an entry errs.

List only mutants that change behaviour: a surviving mutant is a missing
test, and an entry is dropped only once it is shown equivalent.  pytest does
not collect this file (its name has no test_ prefix).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "pyproject.toml", "README.md")
GF, CODES, BOUNDS, SELFCHECK, EXCLUSION, TABLES, CLI, CORPUS = (
    f"src/weightbounds/{name}.py"
    for name in ("gf", "codes", "bounds", "selfcheck", "exclusion", "tables", "cli", "corpus")
)
GF_TESTS = "tests/test_gf.py::"
CODES_TESTS = "tests/test_codes.py::"
BOUNDS_TESTS = "tests/test_bounds.py::"
SELFCHECK_TESTS = "tests/test_selfcheck.py::"
TESTS = "tests/test_exclusion.py::"
TABLES_TESTS = "tests/test_tables.py::"
STRICTER = SELFCHECK_TESTS + "test_the_mask_suite_equals_the_oracle_under_a_stricter_rule"
PACKED = SELFCHECK_TESTS + "test_packed_masks_equal_the_walked_masks"
RECORDS = CODES_TESTS + "test_replace_and_make_check_like_the_constructor"
INSERT = CODES_TESTS + "test_echelon_insert_matches_the_scalar_reference"
RREF = CODES_TESTS + "test_row_reduce_matches_scalar_reference"
PRODUCTS = SELFCHECK_TESTS + "test_packed_masks_take_no_more_products_than_scaling_each_row"
SCAN = SELFCHECK_TESTS + "test_the_scan_reads_exactly_the_masks_lighter_than_its_bound"
TRUSTED = "tests/test_corpus.py::test_corpus_codes_are_what_linear_code_would_build"
CACHE_KEY = BOUNDS_TESTS + "test_tuples_that_differ_in_one_parameter_get_their_own_verdicts"
WEIGHTED = BOUNDS_TESTS + "test_the_verdicts_with_w_match_their_formulas_at_every_weight"


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    why: str


MUTANTS = (
    Mutant(
        GF,
        "if z else 0",
        "if z else 1",
        (GF_TESTS + "test_zech_add_equals_digitwise_add_exhaustive[9]",
         GF_TESTS + "test_neg_and_sub_are_additive_inverses[9]"),
        "Zech addition gives 1, not 0, for a + (-a) in GF(p^m) with odd p",
    ),
    Mutant(
        GF,
        "self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]",
        "self._exp[(self._log[a] + self._log[b]) % self.q]",
        (GF_TESTS + "test_table_mul_equals_polynomial_mul_exhaustive[4]",
         GF_TESTS + "test_arith_examples"),
        "log/exp multiplication reduces the log sum mod q, not the group order q - 1",
    ),
    Mutant(
        GF,
        "return map(operator.mod, map(operator.add, x, y), repeat(self.p))",
        "return map(operator.add, x, y)",
        (GF_TESTS + "test_vector_ops_equal_elementwise_scalar_ops[3]",
         CODES_TESTS + "test_iter_codewords_matches_naive_oracle"),
        "prime-field vector addition never reduces mod p",
    ),
    Mutant(
        GF,
        "pow(a, self.p - 2, self.p)",
        "pow(a, self.p - 1, self.p)",
        (GF_TESTS + "test_field_axioms_exhaustive[3]",),
        "the prime-field inverse by a^(p-1), which is 1, not a^(p-2)",
    ),
    Mutant(
        GF,
        "return hash(self.q)",
        "return hash(id(self))",
        (GF_TESTS + "test_gf_is_built_from_q_alone",),
        "two equal fields, GF(q) and make_field(q), hash differently",
    ),
    Mutant(
        CODES,
        "1 <= d <= n and q >= 2",
        "1 <= d and q >= 2",
        (RECORDS,),
        "CodeParams accepts a minimum distance above the length",
    ),
    Mutant(
        CODES,
        "if rank != len(rows):",
        "if rank > len(rows):",
        (RECORDS, CODES_TESTS + "test_code_from_matrix_rejections"),
        "LinearCode accepts rank-deficient rows",
    ),
    Mutant(
        CODES,
        "    _make = classmethod(lambda cls, fields: cls(*fields))\n\n    def __str__",
        "    def __str__",
        (RECORDS,),
        "CodeParams._replace and _make build through tuple.__new__, skipping the range check",
    ),
    Mutant(
        CODES,
        "    _make = classmethod(lambda cls, fields: cls(*fields))\n\n    @property",
        "    @property",
        (RECORDS,),
        "LinearCode._replace and _make build through tuple.__new__, skipping the rank check",
    ),
    Mutant(
        CODES,
        "sum(b << d * size for d in range(q))",
        "sum(b << d * size for d in range(q - 1))",
        (CODES_TESTS + "test_value_bitmaps_repeat_long_bitmaps_at_zero_entries[2-14]",
         CODES_TESTS + "test_spectrum_kernel_branches_match_oracle[2]"),
        "a zero entry of a low column repeats each value bitmap q - 1 times, not q",
    ),
    Mutant(
        CODES,
        "extended[u] = extended.get(u, 0) | b << d * size",
        "extended[u] = b << d * size",
        (CODES_TESTS + "test_value_bitmaps_match_inner_products[3-3]",),
        "a nonzero low-column entry keeps one message per value, not the union",
    ),
    Mutant(
        CODES,
        "(q - 1, projective_codewords(gf, code.rows[a:]))",
        "(1, projective_codewords(gf, code.rows[a:]))",
        (CODES_TESTS + "test_spectrum_matches_brute_force_oracle_other_fields[3]",),
        "the spectrum counts each projective high part once, not for its q - 1 multiples",
    ),
    Mutant(
        CODES,
        "len({c[:a] for c in cols}) * q ** (a + 2) > _LOW_BITS",
        "len({c[:a] for c in cols}) * q ** (a + 1) > _LOW_BITS",
        (CODES_TESTS + "test_low_block_of_the_benchmark_shapes",),
        "the low-block budget charges q^(a+1), not q^(a+2), bits per distinct low column",
    ),
    Mutant(
        CODES,
        "c = s & x | t & y",
        "c = s & x",
        (CODES_TESTS + "test_spectrum_of_the_11_3_6_code",
         CODES_TESTS + "test_spectrum_kernel_branches_match_oracle[2]"),
        "the carry-save counter drops the carry of s ^ x with y",
    ),
    Mutant(
        CODES,
        "split.append((w - (1 << i), t, u))",
        "split.append((w - (i + 1), t, u))",
        (CODES_TESTS + "test_spectrum_of_the_11_3_6_code",
         CODES_TESTS + "test_spectrum_repetition_code"),
        "the weight split takes i + 1 zeros for bit plane i, not 2^i (wrong from plane 2 on)",
    ),
    Mutant(
        CODES,
        "cw[:] = add_vec(cw, diff[i][q - 1])",
        "cw[:] = add_vec(cw, diff[i][q - 2])",
        (CODES_TESTS + "test_iter_codewords_matches_naive_oracle",
         CODES_TESTS + "test_projective_codewords_are_one_per_scalar_class[4]"),
        "the walk's carry steps a digit q-1 -> 0 by the step of q-2 -> q-1"
        " (the same step in a prime field, a different one in GF(p^m))",
    ),
    Mutant(
        BOUNDS,
        "return total + terms - i",
        "return total + terms - i - 1",
        (BOUNDS_TESTS + "test_ceil_div_sum_matches_naive_sum",
         BOUNDS_TESTS + "test_griesmer_min_n"),
        "ceil_div_sum's early return counts one term of 1 too few",
    ),
    Mutant(
        BOUNDS,
        "out = list(_classical_verdicts(n, k, d, q))",
        "out = list(_classical_verdicts.__dict__.setdefault("
        "(n, k, d), _classical_verdicts(n, k, d, q)))",
        (CACHE_KEY,),
        "the verdict cache is keyed on (n, k, d): a tuple that differs only in q gets the"
        " first one's verdicts",
    ),
    Mutant(
        BOUNDS,
        "out = list(_classical_verdicts(n, k, d, q))",
        "out = _classical_verdicts.__dict__.setdefault("
        "(n, k, d, q), list(_classical_verdicts(n, k, d, q)))",
        (BOUNDS_TESTS + "test_each_call_returns_a_fresh_list",),
        "the verdict cache hands out its stored list uncopied: one caller's append reaches"
        " the next",
    ),
    Mutant(
        BOUNDS,
        "@functools.lru_cache(maxsize=256, typed=True)",
        "@functools.lru_cache(maxsize=256)",
        (BOUNDS_TESTS + "test_the_cache_keeps_equal_arguments_of_other_types_apart",),
        "the verdict cache is untyped: 15.0 reads the verdicts of 15, True those of 1",
    ),
    Mutant(
        BOUNDS,
        "    return n - k + 1\n",
        "    return n - k + 2\n",
        (BOUNDS_TESTS + "test_singleton_max_d", CACHE_KEY),
        "the Singleton core allows one more distance, in the public function and the verdicts",
    ),
    Mutant(
        BOUNDS,
        "return (q * d - 1) // (q - 1)",
        "return q * d // (q - 1)",
        (BOUNDS_TESTS + "test_weight_window_examples",
         BOUNDS_TESTS + "test_residual_griesmer_window_enforcement"),
        "the window core takes its open end w = q*d/(q-1) in when q - 1 divides q*d",
    ),
    Mutant(
        BOUNDS,
        "return n - k - ceil_div(w, q) + 2",
        "return n - k - ceil_div(w, q) + 1",
        (BOUNDS_TESTS + "test_residual_singleton_examples", WEIGHTED),
        "the residual Singleton core caps the distance one lower",
    ),
    Mutant(
        BOUNDS,
        "ceil_div_sum(rest, q, k - 1) - rest",
        "ceil_div_sum(rest, q, k - 2) - rest",
        (BOUNDS_TESTS + "test_residual_griesmer_examples", WEIGHTED),
        "the residual Griesmer core drops the last term of the residual code's sum",
    ),
    Mutant(
        BOUNDS,
        "return q * (n - d)",
        "return q * (n - d) - 1",
        (BOUNDS_TESTS + "test_global_weight_max", WEIGHTED),
        "the weight-cap core is one too low",
    ),
    Mutant(
        BOUNDS,
        '("distance-ratio", (q + 1) * d, "<=", q * n)',
        '("distance-ratio", (q + 1) * d, "<", q * n)',
        (BOUNDS_TESTS + "test_distance_ratio", CACHE_KEY),
        "the ratio core is strict: codes meeting (q+1)*d = q*n fail it",
    ),
    Mutant(
        BOUNDS,
        "if lhs < rhs:  # w is in the window",
        "if lhs <= rhs:  # w is in the window",
        (WEIGHTED,),
        "parameter_verdicts takes the window's open end w = q*d/(q-1) as in the window",
    ),
    Mutant(
        CODES,
        "for lanes in scaled[:q - 1 if t < k - 1 else 1]]",
        "for lanes in scaled]",
        (PACKED,),
        "the last row takes every scalar, not just 1: each of its classes is counted q - 1 times",
    ),
    Mutant(
        CODES,
        "dict(zip(entries, map(table.__getitem__, gf.scale_vec(e, entries))))",
        "dict(zip(gf.scale_vec(e, entries), map(table.__getitem__, entries)))",
        (PACKED,),
        "the scalar lookup is keyed by the product e * x, not by the entry x",
    ),
    Mutant(
        CODES,
        "entries = list({x for row in rows[:-1] for x in row})",
        "entries = list(range(q))",
        (PRODUCTS + "[256]", PRODUCTS + "[65536]"),
        "the scalar lookups cover the whole field: (q - 2) * q products, 4.3e9 for GF(65536)",
    ),
    Mutant(
        CODES,
        "row in code.rows + (vec,)) != code.k:",
        "row in code.rows + (vec,)) > code.k + 1:",
        (CODES_TESTS + "test_residual_rejections",
         CODES_TESTS + "test_residual_refuses_exactly_the_non_codewords[5]"),
        "residual takes any vector as a codeword: the stacked rank never exceeds k + 1",
    ),
    Mutant(
        CODES,
        "gf.scale_vec(gf.neg(row[pivot]), b)",
        "gf.scale_vec(row[pivot], b)",
        (INSERT + "[3]", INSERT + "[25]",
         "tests/test_corpus.py::test_the_default_corpus_is_pinned",
         "tests/test_corpus.py::test_each_draw_is_decided_like_the_plain_rank_test"),
        "echelon_insert adds, not subtracts, the stored rows (the same only in characteristic 2)",
    ),
    Mutant(
        CODES,
        "row if x == 1 else list(gf.scale_vec(gf.inv(x), row))",
        "row",
        (INSERT + "[4]", INSERT + "[7]"),
        "echelon_insert stores a row without scaling it to a leading 1",
    ),
    Mutant(
        CODES,
        "for pivot, x in enumerate(row):",
        "for pivot, x in reversed(list(enumerate(row))):",
        (INSERT + "[2]", INSERT + "[9]"),
        "echelon_insert takes the last nonzero column as the pivot: the rank holds, the pivots"
        " are not the RREF's",
    ),
    Mutant(
        CODES,
        "for _, row in reversed(basis):",
        "for _, row in basis:",
        (RREF + "[3]", RREF + "[4]"),
        "row_reduce's second pass runs first to last: entries above later pivots stay",
    ),
    Mutant(
        CODES,
        "for _, r in sorted(reduced)",
        "for _, r in reduced",
        (RREF + "[2]", RREF + "[5]", CODES_TESTS + "test_a_code_is_its_field_and_rows"),
        "row_reduce returns the RREF rows last pivot first, not sorted by pivot",
    ),
    Mutant(
        CODES,
        "        yield tuple(start)\n        return\n",
        "        return\n",
        (CODES_TESTS + "test_a_walk_over_no_rows_yields_its_start_and_builds_no_step_table",
         CODES_TESTS + "test_projective_codewords_are_one_per_scalar_class[3]",
         CODES_TESTS + "test_spectrum_of_the_11_3_6_code"),
        "a walk over no rows yields nothing: each level's first class and the one-row high"
        " side are lost",
    ),
    Mutant(
        CODES,
        "n * q ** (a + 2) > _LOW_BITS and",
        "n * q ** (a + 2) >= _LOW_BITS and",
        (CODES_TESTS + "test_the_budget_settles_on_n_columns_without_the_column_set",),
        "the budget builds the set of low columns when n * q^(a+2) meets _LOW_BITS exactly",
    ),
    Mutant(
        CODES,
        "ones * ((1 << b - 1) - p)",
        "ones * ((1 << b - 1) - p + 1)",
        (PACKED + "[3]", PACKED + "[9]"),
        "the packed digit-wise add reduces a digit sum of p - 1 as well",
    ),
    Mutant(
        CODES,
        "& ones) * p for y in ys",
        "& ones) * (p - 1) for y in ys",
        (PACKED + "[5]", PACKED + "[25]"),
        "the packed digit-wise add subtracts p - 1, not p, from a digit sum of p or more",
    ),
    Mutant(
        CODES,
        "low * ((1 << width - 1) - 1)",
        "low * ((1 << width - 2) - 1)",
        (PACKED + "[2]", PACKED + "[4]"),
        "the lane fold misses a nonzero lane whose value stays below 2^(W-2) + 1",
    ),
    Mutant(
        SELFCHECK,
        "len(b) * (q - 1) for b in buckets[1:]",
        "len(b) for b in buckets[1:]",
        (SELFCHECK_TESTS + "test_the_mask_suite_equals_the_residual_oracle",),
        "the bucket sizes are read as the spectrum without its q - 1 codewords per mask",
    ),
    Mutant(
        SELFCHECK,
        "if inside != 1:",
        "if inside < 1:",
        (STRICTER + "[max_window_weight]",
         SELFCHECK_TESTS
         + "test_a_broken_residual_invariant_is_an_internal_error_not_a_violation"),
        "the mask suite misses a residual of dimension below k - 1",
    ),
    Mutant(
        SELFCHECK,
        "min((r for r in rest if r), default=floor_d)",
        "max((r for r in rest if r), default=floor_d)",
        (STRICTER + "[ceil_div]",),
        "the mask suite reads the residual distance as the largest weight",
    ),
    Mutant(
        SELFCHECK,
        "lighter[min(w + max(floor_d, 1), n + 1)]",
        "lighter[min(w + max(floor_d, 1), n + 1) - 1]",
        (SELFCHECK_TESTS + "test_the_mask_suite_equals_the_residual_oracle", SCAN),
        "the residual scan reads lighter one bucket short and misses the masks inside a support"
        " at floor 1",
    ),
    Mutant(
        SELFCHECK,
        "lighter[min(w + max(floor_d, 1), n + 1)]",
        "lighter[min(w + max(floor_d, 1) + 1, n + 1)]",
        (SCAN,),
        "the residual scan reads lighter one bucket long: the same results from masks it need"
        " not read",
    ),
    Mutant(
        SELFCHECK,
        "lighter[min(w + max(floor_d, 1), n + 1)]",
        "lighter[min(w + floor_d, n + 1)]",
        (STRICTER + "[max_window_weight]",),
        "the residual scan skips the masks inside a support when the floor is 0 or less",
    ),
    Mutant(
        SELFCHECK,
        "m.bit_count() <= hi",
        "m.bit_count() < hi",
        (SELFCHECK_TESTS + "test_suites_read_the_rules_from_bounds[max_window_weight]",
         STRICTER + "[max_window_weight]", STRICTER + "[ceil_div]"),
        "the mask suite skips the supports of the top window weight",
    ),
    Mutant(
        SELFCHECK,
        "if inside == len(masks):",
        "if inside == len(masks) - 1:",
        (SELFCHECK_TESTS + "test_suites_read_the_rules_from_bounds[max_window_weight]",
         STRICTER + "[max_window_weight]"),
        "the mask suite calls a residual with one surviving class empty",
    ),
    Mutant(
        SELFCHECK,
        "residual dimension {k - t} != {k - 1}",
        "residual dimension {k - t - 1} != {k - 1}",
        (STRICTER + "[max_window_weight]",),
        "the mask suite reports a residual dimension one too low",
    ),
    Mutant(
        SELFCHECK,
        "            continue\n        spec = spectrum(code)",
        "            pass\n        spec = spectrum(code)",
        (SELFCHECK_TESTS + "test_the_cap_and_ratio_suites_skip_one_dimensional_codes",),
        "the weight-cap suite checks k = 1 codes, whose weight n exceeds q*(n - d) = 0",
    ),
    Mutant(
        SELFCHECK,
        "            continue\n        checked += 1\n        if not distance_ratio_holds",
        "            pass\n        checked += 1\n        if not distance_ratio_holds",
        (SELFCHECK_TESTS + "test_the_cap_and_ratio_suites_skip_one_dimensional_codes",),
        "the ratio suite checks k = 1 codes, which fail (q+1)*d <= q*n",
    ),
    Mutant(
        SELFCHECK,
        "codes[i:i + step]",
        "codes[i:i + step + 1]",
        (SELFCHECK_TESTS + "test_selftest_shares_spectra_slice_by_slice",),
        "selftest slices overlap by one code, which the suites then count twice",
    ),
    Mutant(
        EXCLUSION,
        "    if k >= 2 and d <= n - k + 1 and not cx <= si:\n"
        '        raise AssertionError(f"singleton set fails to contain chen-xie set at {params}")\n',
        "",
        (TESTS + "test_compare_methods_checks_containment_before_any_note_is_read",
         TESTS + "test_exclude_exits_3_when_singleton_misses_chen_xie"),
        "the containment of the Chen-Xie set in the Singleton set goes unchecked",
    ),
    Mutant(
        EXCLUSION,
        "(q * d) // (q - 1) - 1",
        "(q * d - 1) // (q - 1)",
        (TESTS + "test_chen_xie_odd_ternary_upper_endpoint",
         TESTS + "test_chen_xie_closed_form_equals_slack_scan"),
        "the Chen-Xie endpoint one too high when q - 1 does not divide q*d",
    ),
    Mutant(
        EXCLUSION,
        "q * (n - k - d + 2) + 1",
        "q * (n - k - d + 2)",
        (TESTS + "test_singleton_examples",),
        "the Singleton interval starts one weight too low",
    ),
    Mutant(
        EXCLUSION,
        "if n >= d + k - 2 + ceil_div(d + 1, q - 1):",
        "if n >= d + k - 3 + ceil_div(d + 1, q - 1):",
        (TESTS + "test_the_cap_is_attained",
         TESTS + "test_griesmer_by_period_equals_the_scan"),
        "the Griesmer cap C one lower skips a scan that excludes a weight",
    ),
    Mutant(
        EXCLUSION,
        "period = q ** min(k - 1, (stop - d).bit_length())",
        "period = q ** min(k - 2, (stop - d).bit_length())",
        (TESTS + "test_griesmer_by_period_equals_the_scan",),
        "the Griesmer period q^(k-2), over which f does not grow by exactly 1",
    ),
    Mutant(
        EXCLUSION,
        "while i < k - 2 and m % q == 0:",
        "while i < k - 1 and m % q == 0:",
        (TESTS + "test_griesmer_by_period_equals_the_scan",),
        "the Griesmer unit step counts one ceiling term too many",
    ),
    Mutant(
        EXCLUSION,
        "range(w0 + max(0, n + 1 - f) * period, stop, period)",
        "range(w0 + max(0, n + 2 - f) * period, stop, period)",
        (TESTS + "test_compare_methods_progression_on_the_11_3_6_example",
         TESTS + "test_griesmer_by_period_equals_the_scan"),
        "every residue class misses the weight with f(w) = n + 1",
    ),
    Mutant(
        EXCLUSION,
        "i = 0 if m else k - 2",
        "i = 0",
        ("tests/test_fuzz.py::test_parameter_arguments_succeed_or_exit_2",),
        "the Griesmer step past the window divides 0 by q k - 2 times: over the"
        " fuzz budget at k = 2^31",
    ),
    Mutant(
        EXCLUSION,
        "elif d > n - k + 1:",
        "if d > n - k + 1:",
        (TESTS + "test_every_report_has_one_regime_note_and_the_low_weights_note_past_d_1",),
        "a void or k = 1 report carries a second left-endpoint regime note",
    ),
    Mutant(
        CORPUS,
        "yield z ^ (z >> 31)\n",
        "yield z ^ (z >> 30)\n",
        ("tests/test_corpus.py::test_splitmix64_reference_vector",
         "tests/test_corpus.py::test_the_default_corpus_is_pinned"),
        "the stream's last mixing step shifts by 30, not 31: other draws, another corpus",
    ),
    Mutant(
        CORPUS,
        "if echelon_insert(gf, basis, row):",
        "if echelon_insert(gf, basis, row) or len(accepted) == k - 1:",
        (TRUSTED + "[12345]", TRUSTED + "[7]",
         "tests/test_corpus.py::test_the_default_corpus_is_pinned"),
        "random_code keeps its last draw even when the basis rejects it: a code of rank k - 1"
        " built without LinearCode's rank check",
    ),
    Mutant(
        CORPUS,
        "if not 0 <= seed <= _MASK64:",
        "if not seed <= _MASK64:",
        ("tests/test_corpus.py::test_seeds_outside_64_bits_are_refused[-1]",
         "tests/test_cli.py::test_selftest_refuses_a_seed_outside_64_bits[-5]"),
        "a negative seed is masked into 64 bits: -5 runs the corpus of 2^64 - 5",
    ),
    Mutant(
        TABLES,
        "out.update(range(lo, hi + 1))",
        "out.update(range(lo, hi))",
        (TABLES_TESTS + "test_parse_and_format_weights",),
        "parse_weights drops the end of every run, and so every single weight",
    ),
    Mutant(
        TABLES,
        "        if self.printed == self.computed_raw:\n"
        "            return EXACT\n"
        "        if self.printed == self.computed_clamped:\n"
        "            return CLAMPED\n",
        "        if self.printed == self.computed_clamped:\n"
        "            return CLAMPED\n"
        "        if self.printed == self.computed_raw:\n"
        "            return EXACT\n",
        (TABLES_TESTS + "test_verdicts_and_flags_are_derived_from_the_cells",),
        "a cell whose raw and clamped sets agree reads exact-after-clamp, not exact",
    ),
    Mutant(
        TABLES,
        "@functools.lru_cache(maxsize=None)\n",
        "",
        (TABLES_TESTS + "test_rows_are_parsed_once_and_returned_in_a_fresh_list",),
        "table_rows parses every printed cell again on each call",
    ),
    Mutant(
        TABLES,
        "return list(_parsed_rows(which))",
        "return _parsed_rows.__dict__.setdefault(which, list(_parsed_rows(which)))",
        (TABLES_TESTS + "test_rows_are_parsed_once_and_returned_in_a_fresh_list",),
        "table_rows hands out one stored list: a caller's clear() empties the next call's rows",
    ),
    Mutant(
        TABLES,
        "if w == prev - 1:",
        "if w == prev - 2:",
        (TABLES_TESTS + "test_parse_and_format_weights",),
        "format_weights joins weights two apart into a run and splits consecutive ones",
    ),
    Mutant(
        TABLES,
        "CellComparison(method, printed, raw, clamped, count)",
        "CellComparison(method, printed, raw, raw, count)",
        (TABLES_TESTS + "test_table1_clamp_pattern",),
        "compare_row passes the raw set as the clamped one: cells printed clamped mismatch",
    ),
    Mutant(
        CLI,
        "            print(f\"  - {violation}\")\n    ok = all(res.ok for res in results)\n"
        "    print(\"PASS\" if ok else \"FAIL\")\n    return 0 if ok else 1",
        "            pass\n    print(\"PASS\")\n    return 0",
        (SELFCHECK_TESTS + "test_a_failing_selftest_prints_each_violation_and_fail",),
        "selftest prints PASS and exits 0 whatever the suites found, with no violation lines",
    ),
    Mutant(
        CLI,
        "size, limit = (hi if args.raw else min(hi, args.n)) - lo + 1, _limit(args)\n"
        "    if size > limit:",
        "size, limit = (hi if args.raw else min(hi, args.n)) - lo + 1, _limit(args)\n"
        "    if size >= limit:",
        ("tests/test_cli.py::test_exclude_window_counts_to_n_unless_raw",
         "tests/test_cli_transcript.py::test_transcript_replays_byte_identical"),
        "exclude refuses a window of exactly --limit weights",
    ),
)


def copy_project(tmp: Path) -> dict[str, str]:
    """Copy the COPIED parts of the project into tmp; return the environment
    that runs pytest there on the copy's sources."""
    for name in COPIED:
        src, dst = ROOT / name, tmp / name
        if src.is_dir():
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dst)
    return {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def run(mutant: Mutant, tmp: Path) -> tuple[str, str]:
    """('killed' | 'survived' | 'error', what went wrong) for one mutant in a
    copy of the project under tmp."""
    env = copy_project(tmp)
    target = tmp / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return "error", f"the old text occurs {text.count(mutant.old)} times in {mutant.path}"
    target.write_text(text.replace(mutant.old, mutant.new))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--assert=plain",
         *mutant.tests],
        cwd=tmp, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        return "error", f"pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}"
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    passed = [t for t in mutant.tests
              if not any(f == t or f.startswith(t + "[") for f in failed)]
    if passed:
        return "survived", "named tests that pass: " + ", ".join(passed)
    return "killed", ""


def timed(mutant: Mutant) -> tuple[str, str, float]:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        outcome, detail = run(mutant, Path(tmp))
    return outcome, detail, time.perf_counter() - start


def main() -> int:
    bad, start = 0, time.perf_counter()
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        for mutant, (outcome, detail, seconds) in zip(MUTANTS, pool.map(timed, MUTANTS)):
            bad += outcome != "killed"
            print(f"{outcome:<9} {seconds:5.1f} s  {mutant.path}: {mutant.why}", flush=True)
            if detail:
                print(detail, file=sys.stderr)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed"
          f" in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
