"""README's claim ledger: every anchored claim maps to the tests that back it.

A claim-bearing bullet in README ends with an anchor, an HTML comment
``<!-- claim: NAME -->``.  ``LEDGER`` maps each anchor to pytest node
ids; a node id without parameters stands for all of its cases.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANCHOR = re.compile(r"<!-- claim: ([a-z0-9-]+) -->")

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
    "parse-identity": [
        "tests/test_ecs.py::test_rejection_work_does_not_depend_on_where_a_forgery_diverges",
    ],
    "one-rejection": [
        "tests/test_ecs.py::test_invalid_ciphertext_message_is_opaque",
        "tests/test_cli.py::test_decrypt_flipped_byte_is_exit_4",
        "tests/test_cli.py::test_decrypt_of_a_tampered_4_kib_file_is_exit_4",
    ],
    "point-checks": [
        "tests/test_curve.py::test_off_curve_points_rejected",
        "tests/test_curve.py::test_cross_curve_points_rejected",
        "tests/test_curve.py::test_linear_combinations_validate_every_term",
        "tests/test_ecs.py::test_non_canonical_point_rejected",
    ],
    "private-repr": [
        "tests/test_ecs.py::test_private_key_repr_withholds_the_scalars",
    ],
    "scalar-shape": [
        "tests/test_curve.py::test_linear_combinations_shape_is_independent_of_the_scalars",
        "tests/test_curve.py::test_fixed_tables_wait_for_the_break_even_use",
        "tests/test_curve.py::test_a_table_belongs_to_one_curve",
        "tests/test_curve.py::test_a_damaged_table_file_fails_the_first_use_of_g1",
    ],
    "blinded-inverse": [
        "tests/test_curve.py::test_the_built_in_inverse_only_sees_blinded_products",
    ],
    "encode-timing": [
        "tests/test_codec.py::test_encode_takes_one_square_root_per_candidate",
    ],
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
