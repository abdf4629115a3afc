"""The report content that encoded no check and was deleted: a constant
``finite_critical_levels`` row in every theorem and engine ledger, the
semiflow's constant ``rest_points_match_fixed_points`` row and its
``rest_set`` (a copy of ``fixed_set``), each theorem part's
``hypothesis_ok`` (a copy of one ledger row, else True) and the homeo
report's ``flow`` part (a copy of ``count`` with another note).

``with_removed_rows`` puts it back into a structured report, so a test
can show that a report differs from the bytes pinned before the deletion
by that content alone.
"""

# sha256 of `lscat verify` / `lscat engine verify --format structured` on
# each shipped theorem and engine fixture before the deletion
STRUCTURED_DIGESTS_BEFORE = {
    ("verify", "constant_map_circle"):
        "7bbadc0c6e4f976d1d7bd471454f71745a27a4f3ef6f18e4d3f0181ef492de7d",
    ("verify", "halfcircle_boundary_band"):
        "d97a754b8f595ee33d3eec80113e4957ba15a0006c0a2ff232251ee6e1c95ba3",
    ("verify", "homeo_two_level"):
        "d9fbfadf220fd89c01810af6c6119b622d0748ece05e5d3d7bf53f1f5a1cf9e4",
    ("verify", "two_level_divergence"):
        "4efa704019bb6298e99d9cc13f22eb2347f1637a374a59121a785bdf967c42a9",
    ("verify", "v_descent_bounds"):
        "59e1ed9d358232b6645f6c38ffb4ec976ca4a8422152be42a03c803494adf555",
    ("verify", "wedge_cone_band"):
        "a1d09912f8f76fd78ff5e2ca820efdb56b9b890f48d892c1dd3027091742015a",
    ("engine verify", "engine_negative_constant"):
        "40b47c7e05820eab28d29d85d653295bab1091961434d92b39aa0eb00f7e678f",
    ("engine verify", "v_descent_engine"):
        "e74b0cf006a746617b0844bcc4c3f82abf7d182837ab9215354f0248df703036",
}

# sha256 of criterion 04's 1000 reports before the deletion
CRITERION_04_SHA256_BEFORE = (
    "1363e1e2677cd90ea24e60f7686790183f33d0a1ec5b0aaf417628c782383cdc")

# the ledger row that each part's hypothesis_ok copied (True elsewhere)
_PART_ROWS = {"II": "sublevel_hull_deformable",
              "semi": "sublevel_hull_deformable",
              "III": "sublevel_preserving_homotopy"}


def _checked_true(note):
    return {"status": "checked", "ok": True, "witness": None, "note": note}


def with_removed_rows(report):
    """Put the deleted content back into a structured theorem report
    (``TheoremReport.to_dict``) or engine report, in place; returns it."""
    hyp = report["hypotheses"]
    if "theorem" not in report:  # an engine report
        hyp["finite_critical_levels"] = {"ok": True, "witness": None}
        return report
    parts = report["parts"]
    if report["theorem"] == "semiflow":
        hyp["rest_points_match_fixed_points"] = _checked_true(
            "rest points of every iterate equal the fixed points of the "
            "generator")
        report["values"]["rest_set"] = report["values"]["fixed_set"]
        with_removed_rows(report["values"]["band_report"])
    else:
        hyp["finite_critical_levels"] = _checked_true(
            "finite spaces have finite value sets")
    for name, part in parts.items():
        row = _PART_ROWS.get(name)
        part["hypothesis_ok"] = hyp[row]["ok"] if row else True
    if report["theorem"] == "homeo_band_bound":
        parts["flow"] = {**parts["count"], "note": "rest points of the "
                         "iterate flow coincide with the fixed set"}
    return report
