"""Bundled worked examples with their expected verdict table.

Every entry records the verdicts the analysis must reproduce; the corpus
runner recomputes them and fails loudly on the first mismatch.
"""

from __future__ import annotations

CORPUS = [
    {
        "name": "node",
        "vars": ["x", "y"],
        "poly": "x*y",
        "factors": "x;y",
        "expected": {
            "free": "true", "euler_homogeneous": "true",
            "jacobian_radical": "true", "jacobian_eq_conductor": "true",
            "residues_weakly_holomorphic": "true",
            "normal_crossing_at_origin": "true",
            "gorenstein_singular_locus": "gorenstein",
        },
        "expected_extras": {"direct_sum": "true", "mu_residues": 2,
                            "contains_unit": True},
    },
    {
        "name": "cusp",
        "vars": ["x", "y"],
        "poly": "x^2 - y^3",
        "factors": "x^2 - y^3",
        "expected": {
            "free": "true", "euler_homogeneous": "true",
            "jacobian_radical": "false", "jacobian_eq_conductor": "false",
            "residues_weakly_holomorphic": "false",
            "normal_crossing_at_origin": "false",
            "gorenstein_singular_locus": "gorenstein",
        },
        "expected_extras": {"direct_sum": "false", "mu_residues": 2,
                            "contains_unit": True},
    },
    {
        "name": "triple-point",
        "vars": ["x", "y"],
        "poly": "x*y*(x+y)",
        "factors": "x;y;x+y",
        "expected": {
            "free": "true", "euler_homogeneous": "true",
            "jacobian_radical": "false", "jacobian_eq_conductor": "false",
            "residues_weakly_holomorphic": "false",
            "normal_crossing_at_origin": "false",
            "gorenstein_singular_locus": "gorenstein",
        },
        "expected_extras": {"direct_sum": "false", "mu_residues": 2,
                            "contains_unit": True},
    },
    {
        "name": "two-lines-m1",
        "vars": ["x", "y"],
        "poly": "x*(x+y)",
        "factors": "x;x+y",
        "expected": {
            "free": "true", "euler_homogeneous": "true",
            "jacobian_radical": "true", "jacobian_eq_conductor": "true",
            "residues_weakly_holomorphic": "true",
            "normal_crossing_at_origin": "true",
            "gorenstein_singular_locus": "gorenstein",
        },
        "expected_extras": {"direct_sum": "true", "mu_residues": 2,
                            "contains_unit": True},
    },
    {
        "name": "tangential-m2",
        "vars": ["x", "y"],
        "poly": "x*(x+y^2)",
        "factors": "x;x+y^2",
        "expected": {
            "free": "true", "euler_homogeneous": "true",
            "jacobian_radical": "false", "jacobian_eq_conductor": "false",
            "residues_weakly_holomorphic": "false",
            "normal_crossing_at_origin": "false",
            "gorenstein_singular_locus": "gorenstein",
        },
        "expected_extras": {"direct_sum": "false", "mu_residues": 2,
                            "contains_unit": True},
    },
    {
        "name": "tangential-m3",
        "vars": ["x", "y"],
        "poly": "x*(x+y^3)",
        "factors": "x;x+y^3",
        "expected": {
            "free": "true", "euler_homogeneous": "true",
            "jacobian_radical": "false", "jacobian_eq_conductor": "false",
            "residues_weakly_holomorphic": "false",
            "normal_crossing_at_origin": "false",
            "gorenstein_singular_locus": "gorenstein",
        },
        "expected_extras": {"direct_sum": "false", "mu_residues": 2,
                            "contains_unit": True},
    },
    {
        "name": "coordinate-planes",
        "vars": ["x", "y", "z"],
        "poly": "x*y*z",
        "factors": "x;y;z",
        "expected": {
            "free": "true", "euler_homogeneous": "true",
            "jacobian_radical": "true", "jacobian_eq_conductor": "true",
            "residues_weakly_holomorphic": "true",
            "normal_crossing_at_origin": "true",
            "gorenstein_singular_locus": "not_gorenstein",
        },
        "expected_extras": {"direct_sum": "true", "mu_residues": 3,
                            "contains_unit": True},
    },
    {
        "name": "whitney-umbrella",
        "vars": ["x", "y", "z"],
        "poly": "x^2 - y^2*z",
        "factors": "x^2 - y^2*z",
        "expected": {
            "free": "false", "euler_homogeneous": "true",
            "jacobian_radical": "false", "jacobian_eq_conductor": "false",
            "residues_weakly_holomorphic": "true",
            "normal_crossing_at_origin": "false",
            "gorenstein_singular_locus": "undecided",
        },
        "expected_extras": {"direct_sum": "false", "mu_residues": 2,
                            "contains_unit": True},
    },
    {
        "name": "four-planes-family",
        "vars": ["x", "y", "z"],
        "poly": "x*y*(x+y)*(x+y*z)",
        "factors": "x;y;x+y;x+y*z",
        "expected": {
            "free": "true", "euler_homogeneous": "true",
            "jacobian_radical": "false", "jacobian_eq_conductor": "false",
            "residues_weakly_holomorphic": "false",
            "normal_crossing_at_origin": "false",
            "gorenstein_singular_locus": "not_gorenstein",
        },
        "expected_extras": {"direct_sum": "false", "mu_residues": 3,
                            "contains_unit": True},
    },
    {
        "name": "non-quasihomogeneous",
        "vars": ["x", "y"],
        "poly": "x^4 + y^5 + x*y^4",
        "factors": "x^4 + y^5 + x*y^4",
        "expected": {
            "free": "true", "euler_homogeneous": "false",
            "jacobian_radical": "false", "jacobian_eq_conductor": "false",
            "residues_weakly_holomorphic": "false",
            "normal_crossing_at_origin": "false",
            "gorenstein_singular_locus": "not_gorenstein",
        },
        "expected_extras": {"direct_sum": "false", "mu_residues": 2,
                            "contains_unit": False},
    },
    {
        # the cone over a smooth plane cubic: an isolated surface
        # singularity, so normal (R_D = O_D = O~, cyclic) and smooth in
        # codimension one, yet singular and not free; the Jacobian ideal
        # <x^2, y^2, z^2> is not radical and differs from C_D = O_D
        "name": "cubic-cone",
        "vars": ["x", "y", "z"],
        "poly": "x^3 + y^3 + z^3",
        "factors": "x^3 + y^3 + z^3",
        "expected": {
            "free": "false", "euler_homogeneous": "true",
            "jacobian_radical": "false", "jacobian_eq_conductor": "false",
            "residues_weakly_holomorphic": "true",
            "normal_crossing_at_origin": "false",
            "gorenstein_singular_locus": "undecided",
        },
        "expected_extras": {"direct_sum": "true", "mu_residues": 1,
                            "contains_unit": True},
    },
]


def corpus_names():
    return [entry["name"] for entry in CORPUS]


def run_corpus(only=None, seed=0, expected_overrides=None, report_sink=None):
    """Run every bundled example and compare against the expected table.
    Returns (failures, ran): list of mismatch descriptions and the number of
    entries executed.  `expected_overrides` patches expectations (used by the
    harness self-test); `report_sink` receives (name, report) pairs."""
    from .criteria import analyze_text
    entries = [e for e in CORPUS if only is None or only in e["name"]]
    failures = []
    for entry in entries:
        expected = dict(entry["expected"])
        expected_extras = dict(entry["expected_extras"])
        if expected_overrides and entry["name"] in expected_overrides:
            patch = expected_overrides[entry["name"]]
            expected.update({k: v for k, v in patch.items() if k in expected})
            expected_extras.update({k: v for k, v in patch.items()
                                    if k in expected_extras})
        report = analyze_text(entry["vars"], entry["poly"], entry["factors"],
                              seed=seed)
        if report_sink is not None:
            report_sink(entry["name"], report)
        for key, want in expected.items():
            got = report.verdicts[key]
            if got != want:
                failures.append(f"{entry['name']}: {key} = {got}, expected {want}")
        extras = report.data["extras"]
        for key, want in expected_extras.items():
            got = extras.get(key)
            if got != want:
                failures.append(f"{entry['name']}: {key} = {got}, expected {want}")
        if failures:
            break
    return failures, len(entries)
