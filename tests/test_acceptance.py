"""Acceptance criteria, one test (pass/fail line) per criterion clause.

Each test runs the matching `isozono reproduce` item, the one copy of the
clause's checks, and fails with the item's detail line.  Criteria 2 and 10
are split into lettered items.
"""

from isozono.reproduce import ITEMS

NAMES = {
    "1": "01_fvectors_within_time_budgets",
    "2a": "02a_vertex_orbit_within_time_budget",
    "2b": "02b_f_vector",
    "2c": "02c_facet_offsets_match_reference",
    "3": "03_boundary_identity_fuzz",
    "4": "04_dual_lattice_determinant_identity",
    "5": "05_zonotope_boundary_equals_n_volume",
    "6": "06_brunn_minkowski_certificates",
    "7": "07_sections_and_facet_slices",
    "8": "08_desk_scale_exhaustive_with_recount",
    "9": "09_limiting_shape_evidence",
    "10a": "10a_closed_form_rows",
    "10b": "10b_boundary_ratio_within_tolerance",
    "10c": "10c_volume_ratio_within_tolerance",
    "10d": "10d_ratio_trend_toward_one",
    "11": "11_pick_point_counts",
}


def _criterion(label, check):
    def test():
        ok, detail = check()
        assert ok, detail
    test.__doc__ = label
    return test


for _id, _label, _check in ITEMS:
    globals()[f"test_criterion_{NAMES[_id]}"] = _criterion(_label, _check)
