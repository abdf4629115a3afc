"""Report content that was changed or deleted, in four layers, and the
code that puts it back so that a test can show a report differs from
the bytes pinned before each change by that content alone.

The latest layer made each theorem ledger row a check that ran and each
part's ``holds`` its own inequality.  Every row lost its ``status``
("checked" on every row but one), and the ``binormal_anr`` row went: it
was ok on every space, "checked" with no note on a discrete space and
"assumed" with a note naming the report-only parts otherwise.  A bound
x - y with x and y both infinite reads 0, as does every bound whose
subtrahend is infinite; it read inf in the parts and in
``difference_bound``.  Part ``III``'s ``holds`` no longer folds in the
``sublevel_preserving_homotopy`` row, and a homeo report whose phi is
not bijective lost the value ``note`` that repeated the failed
``homeomorphism`` row.  The identity band report (and so ``semiflow``
and an unbounded ``global_bound``) gained the ``orbit_types_admissible``
row of ``band_bound``.  ``with_status`` puts all of it back and takes
that row out.

The next layer mended a note.  The ``binormal_anr`` row of an
identity band report (and so of ``semiflow`` and an unbounded
``global_bound``) read "parts b and c are report-only", but that report
has no parts ``b`` or ``c``: its report-only counterparts are
``I_orbits`` and ``I_slice``, and the note now names them.
``with_old_note`` puts the old note back.

The middle layer deleted copies.  ``global_bound`` and ``semiflow`` now
return the band report they wrap: the semiflow report lost its nested
``band_report`` value, its parts ``a``, ``b`` and ``c`` (copies of
``I``, ``I_orbits`` and ``I_slice`` against the whole-space category)
and its empty ledger.  The engine report lost ``table`` (the band, the
low and high index, one level per k and the runs) and ``run_checks``
(each run's value, length, slice index and ok), which ``runs``, ``lhs``,
``rhs`` and ``band`` hold.  ``with_copies`` puts them back into a
report that ``with_old_note`` has rebuilt.

The earlier layer deleted content that encoded no check: a constant
``finite_critical_levels`` row in every theorem and engine ledger, the
semiflow's constant ``rest_points_match_fixed_points`` row and its
``rest_set`` (a copy of ``fixed_set``), each theorem part's
``hypothesis_ok`` (a copy of one ledger row, else True) and the homeo
report's ``flow`` part (a copy of ``count`` with another note).
``with_removed_rows`` puts it back into a report that ``with_copies``
has rebuilt.
"""

from lscat.dynamics import TheoremReport

# sha256 of `lscat verify --format structured` on each shipped theorem
# fixture before the status field and the binormal_anr row were deleted
STRUCTURED_DIGESTS_BEFORE_STATUS = {
    ("verify", "constant_map_circle"):
        "8a94a48437beeb72ac281a3c932edc1c46602e03f8ccced88b4e9a3e5fcd455b",
    ("verify", "halfcircle_boundary_band"):
        "72db8656e8f59a4a241b802c95dff87bc4248acba398c14b48ab5637480963d0",
    ("verify", "homeo_two_level"):
        "19e1f1ec78cf68e063d140f2e42e5c6830636c9d6ed2f1ce1665005971143b22",
    ("verify", "two_level_divergence"):
        "e6f4dac4a348c40ebd14904270a9a859e92dbbe71b3314c9e479d4a1439fa6ae",
    ("verify", "v_descent_bounds"):
        "be1916ffb17de559e6f77f9330fff6aa2f3725e87873468e8659388e6c85df99",
    ("verify", "wedge_cone_band"):
        "8d33831733e5e6a096eb914e698187efeed4a6271a04592079b56a0b31b667fb",
}

# sha256 of `lscat verify --format structured` before the note was
# mended, on each shipped fixture whose bytes it moved
STRUCTURED_DIGESTS_BEFORE_NOTE = {
    ("verify", "halfcircle_boundary_band"):
        "7a3471f1b42cc7733aa17094463ea075665a88a3acad0f4579eb9f19a2516c13",
    ("verify", "two_level_divergence"):
        "aeb951a77966433d7f6fc6f9d0eb3eff3be23dcd616cd133bb9a3e06efec7f19",
    ("verify", "v_descent_bounds"):
        "f23c544ded2bce88ae8cb2e7cd456012c601131c5b3fc4566c70d042e4bc6afd",
    ("verify", "wedge_cone_band"):
        "bde92f1e0781a98db271078202de335376ffcd2ae98135beadc713795ba4c119",
}

# sha256 of `lscat verify` / `lscat engine verify --format structured`
# before the copies were deleted, where those bytes moved
STRUCTURED_DIGESTS_BEFORE_COPIES = {
    ("verify", "v_descent_bounds"):
        "182f1f8508ebbaf2283af73ed2f00e78be594f61968c81a049e05d3ab5d9db5a",
    ("engine verify", "engine_negative_constant"):
        "64ff0bcf41c41377dd5c446341c56f1b8b8818e6444041ba214602cf0f6947e3",
    ("engine verify", "v_descent_engine"):
        "b25eb16fb1b230c8084b9455a471a5483aaa7d18ff77b738d07da0847dd19be6",
}

# sha256 of criterion 04's 1000 reports before the copies were deleted
CRITERION_04_SHA256_BEFORE_COPIES = (
    "8d1b1de7a83cd77b4c38f7118803bedad881a64903b1ebd4b87e588ac3d21fb7")

# sha256 of `lscat verify` / `lscat engine verify --format structured` on
# each shipped theorem and engine fixture before the rows were deleted
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

# sha256 of criterion 04's 1000 reports before the rows were deleted
CRITERION_04_SHA256_BEFORE = (
    "1363e1e2677cd90ea24e60f7686790183f33d0a1ec5b0aaf417628c782383cdc")

# the ledger row that each part's hypothesis_ok copied (True elsewhere)
_PART_ROWS = {"II": "sublevel_hull_deformable",
              "semi": "sublevel_hull_deformable",
              "III": "sublevel_preserving_homotopy"}


# the binormal_anr note on a space that is not discrete, by the parts
# its report has
_ANR_NOTES = {"a": "finite non-discrete models are not normal; parts b "
                   "and c are report-only",
              "I": "parts I_orbits and I_slice are report-only"}


def with_status(report, discrete):
    """Put the status field, the ``binormal_anr`` row (on a space that is
    ``discrete`` or not), the infinite bound of inf - inf, part ``III``'s
    folded ``holds`` and the homeo value note back into a structured
    theorem report, and take the identity band report's
    ``orbit_types_admissible`` row out, in place; returns it.  An engine
    report is left as it is."""
    if "theorem" not in report:
        return report
    values, parts, old = report["values"], report["parts"], {}
    if "I" in parts:
        del report["hypotheses"]["orbit_types_admissible"]
    for name, row in report["hypotheses"].items():
        old[name] = {"status": "checked", **row}
        if name == "sublevel_category_finite":
            old["binormal_anr"] = {
                "status": "checked" if discrete else "assumed", "ok": True,
                "witness": None,
                "note": None if discrete
                else _ANR_NOTES["a" if "a" in parts else "I"]}
    report["hypotheses"] = old
    low, high = ("sublevel_count_low", "sublevel_count_high") \
        if "count" in parts else ("sublevel_cat_low", "sublevel_cat_high")
    if values[low] == values[high] == "inf":
        for name in ("a", "b", "c", "I", "I_orbits", "I_slice", "count"):
            if name in parts:
                parts[name]["bound"] = "inf"
        if "difference_bound" in values:
            values["difference_bound"] = "inf"
    if "III" in parts:
        parts["III"]["holds"] &= old["sublevel_preserving_homotopy"]["ok"]
    if "homeomorphism" in old and not old["homeomorphism"]["ok"]:
        values["note"] = "phi is not invertible"
    return report


_MENDED_NOTES = {"parts I_orbits and I_slice are report-only":
                 "parts b and c are report-only"}


def with_old_note(report):
    """Put the old ``binormal_anr`` note back into a structured theorem
    or engine report, in place; returns it."""
    row = report["hypotheses"].get("binormal_anr")
    if row is not None and row["note"] in _MENDED_NOTES:
        row["note"] = _MENDED_NOTES[row["note"]]
    return report


def with_copies(report):
    """Put the deleted copies back into a structured theorem report
    (``TheoremReport.to_dict``) or engine report, in place; returns it."""
    if "theorem" not in report:  # an engine report
        runs = report.pop("runs")
        report["table"] = {
            "band": report["band"],
            "mu_low": report["lhs"]["base"],
            "mu_high": report["rhs"],
            "levels": [{"k": k, "value": run["value"], "slice": run["slice"],
                        "is_critical_level": bool(run["slice"])}
                       for run in runs for k in run["ks"]],
            "runs": [{"value": run["value"], "ks": run["ks"],
                      "slice": run["slice"]} for run in runs],
        }
        report["run_checks"] = [
            {"value": run["value"], "multiplicity": len(run["ks"]),
             "slice_index": run["slice_index"], "ok": run["ok"]}
            for run in runs]
        return report
    if report["theorem"] != "semiflow":
        return report
    values = dict(report["values"])
    fixed_set = values.pop("fixed_set")
    del values["global_low_cut"]
    band_report = {**report, "theorem": "identity_band_bound",
                   "values": values}
    parts = {
        old: {**band_report["parts"][new], "rhs": "whole-space category",
              "note": None}
        for old, new in (("a", "I"), ("b", "I_orbits"), ("c", "I_slice"))}
    ledgerless = TheoremReport("semiflow")
    ledgerless.parts = parts
    report.update(hypotheses={}, parts=parts,
                  values={"fixed_set": fixed_set, "band_report": band_report},
                  verdict=ledgerless.verdict())
    return report


def _checked_true(note):
    return {"status": "checked", "ok": True, "witness": None, "note": note}


def with_removed_rows(report):
    """Put the deleted rows back into a structured theorem report or
    engine report that ``with_copies`` rebuilt, in place; returns it."""
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
