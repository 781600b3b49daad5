"""README's claim ledger: every anchored claim maps to the tests that back it.

A claim-bearing bullet of README's "Security notes", and a claim-bearing
statement of its "Library", "Curves", "Verification oracle", "Tests" and
"Benchmarks", ends with an anchor, an HTML comment
``<!-- claim: NAME -->``.  ``LEDGER`` maps each anchor to pytest node
ids; a node id without parameters stands for all of its cases.

``mutants.json`` holds rows (anchor, file, old text, new text), each an
edit that makes the anchor's claim false, at least one per anchor.
``python3 tests/test_readme.py --mutants`` applies each in turn to a
temporary copy of the tree and runs the anchor's node ids there; a
mutant is killed when some test's outcome differs from the unmutated
copy's, so turning the expected-red check green counts too.  It prints
the survivors, exits 1 if there are any, and writes only inside the
copy, which it removes on exit, an interrupt included.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ANCHOR = re.compile(r"<!-- claim: ([a-z0-9-]+) -->")
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())

LEDGER = {
    "decrypt-work": [
        "tests/test_ecs.py::test_rejection_work_does_not_depend_on_where_a_forgery_diverges",
        "tests/test_ecs.py::test_the_tag_comparison_decides_equality_of_encodings",
        "tests/test_ecs.py::test_decrypt_rejects_a_message_only_after_every_chunk",
    ],
    "identity-mask": [
        "tests/test_ecs.py::test_decrypt_rejects_identity_mask_points",
        "tests/test_ecs.py::test_decrypt_refuses_the_keyless_identity_forgery",
    ],
    "identity-key": [
        "tests/test_ecs.py::test_a_key_with_an_identity_point_encrypts_nothing",
        "tests/test_wire.py::test_rejects_identity_in_public_key",
        "tests/test_wire.py::test_serialize_rejects_identity_in_public_key",
        "tests/test_ecs.py::test_keygen_draws_again_for_an_identity_commitment",
    ],
    "parse-identity": ["tests/test_ecs.py::test_rejection_work_does_not_depend_on_where_a_forgery_diverges"],
    "one-rejection": [
        "tests/test_ecs.py::test_decrypt_chunk_refuses_a_changed_chunk_opaquely",
        "tests/test_cli.py::test_failures_are_one_error_line_and_an_exit_code[flipped-byte]",
        "tests/test_cli.py::test_decrypt_of_a_tampered_4_kib_file_is_exit_4",
    ],
    "point-checks": [
        "tests/test_curve.py::test_off_curve_points_rejected",
        "tests/test_curve.py::test_cross_curve_points_rejected",
        "tests/test_curve.py::test_linear_combinations_validate_every_term",
        "tests/test_ecs.py::test_decrypt_chunk_refuses_a_changed_chunk_opaquely[non-canonical]",
    ],
    "private-repr": ["tests/test_ecs.py::test_private_key_repr_withholds_the_scalars"],
    "scalar-shape": [
        "tests/test_curve.py::test_linear_combinations_shape_is_independent_of_the_scalars",
        "tests/test_curve.py::test_fixed_tables_wait_for_the_break_even_use",
        "tests/test_curve.py::test_a_table_belongs_to_one_curve",
        "tests/test_curve.py::test_a_damaged_table_file_fails_the_first_use_of_g1",
        "tests/test_curve.py::test_select_matches_a_plain_lookup_for_every_window",
        "tests/test_curve.py::test_the_primitive_costs_of_one_operation",
    ],
    "blinded-inverse": ["tests/test_curve.py::test_the_built_in_inverse_only_sees_blinded_products"],
    "encode-timing": ["tests/test_codec.py::test_encode_takes_one_square_root_per_candidate"],
    "scalar-draws": [
        "tests/test_ecs.py::test_sample_scalar_rejection",
        "tests/test_ecs.py::test_fan_out_changes_no_byte_and_no_count",
        "tests/test_ecs.py::test_encrypt_chunk_refuses_r_outside_its_range",
    ],
    "fan-out": [
        "tests/test_ecs.py::test_a_failed_child_costs_time_not_results",
        "tests/test_ecs.py::test_fan_out_when_sigchld_reaps_the_children",
        "tests/test_ecs.py::test_an_interrupt_in_the_caller_reaps_every_child_and_propagates",
        "tests/test_ecs.py::test_the_fan_out_leaves_no_descriptor_open",
        "tests/test_ecs.py::test_slices_cover_the_chunks_in_order",
    ],
    "fan-out-same": [
        "tests/test_ecs.py::test_fan_out_changes_no_byte_and_no_count",
        "tests/test_ecs.py::test_the_pinned_encryption_fans_out_on_two_cpus",
        "tests/test_ecs.py::test_a_fanned_out_parse_equals_the_serial_one",
        "tests/test_ecs.py::test_a_fanned_out_parse_uses_the_childs_slice",
        "tests/test_ecs.py::test_a_fanned_out_process_counts_only_its_own_slice",
        "tests/test_ecs.py::test_short_messages_never_fork",
    ],
    "one-process": [
        "tests/test_ecs.py::test_slices_cover_the_chunks_in_order",
        "tests/test_ecs.py::test_no_fork_beside_another_thread",
    ],
    "headers-bound": [
        "tests/test_ecs.py::test_decrypt_rejects_swapped_chunks",
        "tests/test_ecs.py::test_decrypt_rejects_truncation_and_extension",
        "tests/test_ecs.py::test_decrypt_chunk_refuses_a_changed_chunk_opaquely[wrong-header]",
    ],
    "splice-gap": ["tests/test_ecs.py::test_chunks_splice_between_ciphertexts_at_the_same_index"],
    "strict-parsers": [
        "tests/test_wire.py::test_rejects_all_truncations",
        "tests/test_wire.py::test_rejects_trailing_bytes",
        "tests/test_wire.py::test_rejects_invalid_point_encodings",
        "tests/test_wire.py::test_fuzzed_mutations_parse_or_raise_parse_error",
        "tests/test_wire.py::test_key_parsers_refuse_mutations_only_with_parse_error",
        "tests/test_wire.py::test_dearmor_refuses_mutations_only_with_parse_error",
        "tests/test_ecs.py::test_a_fanned_out_parse_equals_the_serial_one",
        "tests/test_ecs.py::test_a_fanned_out_parse_reports_the_first_bad_point",
    ],
    "first-fault": [
        "tests/test_ecs.py::test_a_fanned_out_parse_reports_the_first_bad_point",
        "tests/test_ecs.py::test_a_fanned_out_parse_equals_the_serial_one",
    ],
    "curve-shape": [
        "tests/test_curve.py::test_each_spec_check_names_its_reason",
        "tests/test_curve.py::test_curves_with_p_2_mod_3_have_p_plus_1_points",
        "tests/test_field.py::test_sqrt_refuses_fields_not_3_mod_4",
    ],
    "registry-curves": [
        "tests/test_curve.py::test_registry_lookup",
        "tests/test_curve.py::test_derive_g2_reproduces_registry",
        "tests/test_curve.py::test_toy_curve_search_reproduces_registry",
        "tests/test_curve.py::test_toy_every_scalar_on_every_path",
        "tests/test_ecs.py::test_encrypt_on_tiny_curve_fails_loudly",
    ],
    "glv-proof": [
        "tests/test_curve.py::test_each_spec_check_names_its_reason[no-beta-lam]",
        "tests/test_curve.py::test_corrupted_toy_parameters_rejected",
        "tests/test_curve.py::test_even_lam_is_proved_as_lam_plus_n",
        "tests/test_curve.py::test_glv_constants_rederived",
    ],
    "curve-spec": ["tests/test_curve.py::test_a_curve_is_its_spec"],
    "pinned-specs": [
        "tests/test_curve.py::test_pinned_digests_match_fully_validated_specs",
        "tests/test_curve.py::test_registry_load_rejects_a_changed_constant",
        "tests/test_curve.py::test_registry_load_rejects_a_changed_digest",
        "tests/test_curve.py::test_registry_load_runs_no_proofs",
    ],
    "shipped-tables": [
        "tests/test_curve.py::test_shipped_tables_are_rebuilt_from_proved_curves",
        "tests/test_curve.py::test_a_damaged_table_file_fails_the_first_use_of_g1",
        "tests/test_curve.py::test_every_loaded_table_entry_is_the_built_one",
        "tests/test_curve.py::test_one_shot_processes_load_only_the_generator_tables",
    ],
    "oracle-group": [
        "tests/test_oracle.py::test_enumeration_finds_whole_group",
        "tests/test_oracle.py::test_table_add_matches_group_law",
        "tests/test_oracle.py::test_table_mult_is_repeated_addition",
        "tests/test_oracle.py::test_brute_dlog_recovers_scalars",
        "tests/test_oracle.py::test_independent_decrypt_agrees_with_scheme",
        "tests/test_oracle.py::test_independent_decrypt_never_touches_private_key",
    ],
    "oracle-every-chunk": [
        "tests/test_oracle.py::test_every_substitution_gets_the_key_holding_oracles_verdict",
        "tests/test_oracle.py::test_independent_decrypt_rejects_u2_forgery",
    ],
    "oracle-independent": [
        "tests/test_oracle.py::test_oracle_uses_no_group_ops_from_package",
        "tests/test_acceptance.py::test_criterion_4",
        "tests/test_acceptance.py::test_criterion_5",
    ],
    "acceptance-gate": [
        f"tests/test_acceptance.py::test_criterion_{number}"
        for number in ("1", "2", "3", "4", "5", "6b", "6c", "7", "8", "9", "10")
    ],
    "expected-red": [
        "tests/test_acceptance.py::test_criterion_6a_expected_red",
        "tests/test_ecs.py::test_encrypt_chunk_operation_profile",
    ],
    "logical-counts": [
        "tests/test_curve.py::test_linear_combinations_tally_the_logical_operations",
        "tests/test_bench.py::test_run_suite_counts_single_chunk_message",
        "tests/test_ecs.py::test_encrypt_chunk_operation_profile",
        "tests/test_ecs.py::test_decrypt_chunk_operation_profile",
        "tests/test_ecs.py::test_fan_out_changes_no_byte_and_no_count",
        "tests/test_ecs.py::test_keygen_draws_again_for_an_identity_commitment",
    ],
    "claim-ledger": [
        "tests/test_readme.py::test_every_readme_anchor_is_in_the_ledger_once",
        "tests/test_readme.py::test_every_security_note_but_the_audit_disclaimer_is_anchored",
        "tests/test_readme.py::test_every_library_statement_ends_at_an_anchor",
        "tests/test_readme.py::test_every_ledger_node_id_is_collected",
    ],
    "claim-mutants": ["tests/test_readme.py::test_every_claim_has_a_mutant_that_applies_once"],
    "bench-report": [
        "tests/test_bench.py::test_run_suite_structure",
        "tests/test_bench.py::test_run_suite_counts_single_chunk_message",
        "tests/test_bench.py::test_elgamal_encrypt_counts",
        "tests/test_bench.py::test_elgamal_decrypt_counts",
        "tests/test_bench.py::test_literature_rows_quoted_not_measured",
        "tests/test_bench.py::test_format_report_contents",
        "tests/test_cli.py::test_a_cli_process_loads_only_what_it_needs[bench-only]",
    ],
    "bench-64b": [
        "tests/test_acceptance.py::test_criterion_8",
        "tests/test_bench.py::test_literature_rows_quoted_not_measured",
        "tests/test_bench.py::test_format_report_contents",
    ],
    "bench-keys": [
        "tests/test_bench.py::test_run_suite_structure",
        "tests/test_bench.py::test_format_report_contents",
        "tests/test_cli.py::test_a_cli_process_loads_only_what_it_needs[bench-only]",
    ],
    "bench-p90": [
        "tests/test_bench.py::test_p90_is_the_nearest_rank_sample",
        "tests/test_bench.py::test_run_suite_rejects_too_few_iterations",
        "tests/test_cli.py::test_failures_are_one_error_line_and_an_exit_code[bench-iters]",
    ],
}


def readme_anchors():
    return ANCHOR.findall((ROOT / "README.md").read_text())


def test_every_readme_anchor_is_in_the_ledger_once():
    anchors = readme_anchors()
    assert sorted(anchors) == sorted(LEDGER)
    assert len(set(anchors)) == len(anchors)


def test_every_security_note_but_the_audit_disclaimer_is_anchored():
    section = (ROOT / "README.md").read_text().split("\n## Security notes\n", 1)[1]
    bullets = section.split("\n## ", 1)[0].split("\n- ")[1:]
    unanchored = [bullet for bullet in bullets if not ANCHOR.search(bullet)]
    assert len(unanchored) == 1 and "not been audited" in unanchored[0]


@pytest.mark.parametrize("title", ["Library", "Curves", "Verification oracle", "Tests", "Benchmarks"])
def test_every_library_statement_ends_at_an_anchor(title):
    section = (ROOT / "README.md").read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    prose = section.split("```")[-1]  # after the last code block, if any
    *statements, rest = ANCHOR.split(prose)[::2]
    assert statements and not rest.strip(), rest
    assert all(statement.rstrip().endswith(".") for statement in statements)


def test_every_ledger_node_id_is_collected():
    ids = sorted({node for nodes in LEDGER.values() for node in nodes})
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    collected = result.stdout.splitlines()
    for node in ids:
        assert any(line == node or line.startswith(node + "[") for line in collected), node


def test_every_claim_has_a_mutant_that_applies_once():
    assert {anchor for anchor, *_ in MUTANTS} == set(LEDGER)
    for anchor, path, old, new in MUTANTS:
        assert old != new and (ROOT / path).read_text().count(old) == 1, (anchor, path, old)


# --- the script form: python3 tests/test_readme.py --mutants ----------------

OUTCOME = re.compile(r"^(tests/.+?) (PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS)\b")


def outcomes(tree, nodes):
    """{test id: outcome} of one pytest run of nodes in tree, with temporary files beside it."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", *nodes],
        cwd=tree,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src"), "TMPDIR": str(tree.parent / "tmp")},
    )
    return dict(match.groups() for match in map(OUTCOME.match, result.stdout.splitlines()) if match)


def run_mutants():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so the copy is removed then too
    with tempfile.TemporaryDirectory() as temporary:
        tree = Path(temporary) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
        (tree.parent / "tmp").mkdir()
        baseline = outcomes(tree, sorted({node for anchor, *_ in MUTANTS for node in LEDGER[anchor]}))
        survivors = []
        for anchor, path, old, new in MUTANTS:
            nodes = LEDGER[anchor]
            expected = {
                test: outcome
                for test, outcome in baseline.items()
                if any(test == node or test.startswith(node + "[") for node in nodes)
            }
            target = tree / path
            text = target.read_text()
            target.write_text(text.replace(old, new))
            try:
                killed = outcomes(tree, nodes) != expected
            finally:
                target.write_text(text)
            print("killed  " if killed else "SURVIVED", anchor, path, flush=True)
            if not killed:
                survivors.append((anchor, path, old))
        print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed")
        for anchor, path, old in survivors:
            print(f"survivor: {anchor} {path}: {old!r}")
    return 1 if survivors else 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--mutants"]:
        sys.exit("usage: python3 tests/test_readme.py --mutants")
    sys.exit(run_mutants())
