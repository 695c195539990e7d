"""Acceptance gates for the whole package, one test per criterion.

Each test prints a single `[acceptance N] ...: PASS/FAIL` line to the real
terminal (bypassing capture) so a `pytest -v` log doubles as the acceptance
report.  Tolerances are pinned here and nowhere else.

The full-catalog verification run is shared by the criteria that need it
(module-scoped fixture); everything else draws fresh, smaller runs so the
whole module stays inside a few minutes.
"""

import json
import time

import numpy as np
import pytest

from pdegensol.catalog import family_ids, get_family
from pdegensol.cli import main as cli_main
from pdegensol.numeric import rootfind
from pdegensol.verifier import (
    _famkey,
    crosscheck_derivatives,
    draw_scenario,
    scenario_residuals,
    verify_catalog,
    verify_family,
)

from test_catalog import STRUCTURE
from test_quadrature import BATTERY, quad

EXPECTED_IDS = (
    [f"3.{i}" for i in range(1, 12)]
    + [f"4.{i}" for i in range(1, 5)]
    + [f"5.{i}" for i in range(1, 4)]
    + [f"6.{i}" for i in range(1, 6)]
    + ["7.1", "7.2"]
)
ELEMENTARY = ["3.1", "3.2", "3.4", "3.9", "3.10", "6.1", "6.2", "7.1", "7.2"]

TOL_ELEMENTARY = 1e-6       # criterion 2
FULL_RUN_BUDGET_S = 600.0   # criterion 3
ELEM_BUDGET_S = 30.0        # criterion 2
TOL_ROOT_FAMILIES = 1e-5    # criterion 4
PHI_RESIDUAL_TOL = 1e-12    # criterion 4: |phi(z)| at every accepted root
IMPLICIT_FD_TOL = 1e-6      # criterion 4: derivative cross-check, rel
QUAD_BATTERY_TOL = 1e-9     # criterion 5
JET_FD_TOL = 1e-5           # criterion 5
ADJUDICATION_XCHECK = 1e-4  # criterion 3: FAIL is honest only under this


def _report(capsys, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance {num}] {name}: {verdict} ({detail})")
    assert ok, f"acceptance {num} {name}: {detail}"


@pytest.fixture(scope="module")
def full_run():
    """One production-settings verification of the whole catalog."""
    t0 = time.monotonic()
    reports = list(verify_catalog(None, n_scenarios=5, n_points=20, seed=1))
    wall = time.monotonic() - t0
    return reports, wall


def test_criterion_1_catalog_completeness(capsys):
    ids = family_ids()
    ok = ids == EXPECTED_IDS
    audit_bad = []
    for fid in ids:
        fam = get_family(fid)
        terms, order, depth = STRUCTURE[fid]
        if (len(fam.pde_terms), fam.order, fam.sol_depth) != (terms, order,
                                                             depth):
            audit_bad.append(fid)
    ok = ok and not audit_bad
    _report(capsys, 1, "catalog completeness", ok,
            f"{len(ids)} families, audit mismatches: {audit_bad or 'none'}")


def test_criterion_2_elementary_families(capsys):
    t0 = time.monotonic()
    worst = 0.0
    failed = []
    for seed in (1, 2, 3):
        for fid in ELEMENTARY:
            r = verify_family(fid, n_scenarios=5, n_points=20, seed=seed)
            # a report with no evaluated scenario carries NaN: skip it, as
            # max() with a NaN item depends on the order of the items
            if not np.isnan(r.max_rel_residual):
                worst = max(worst, r.max_rel_residual)
            if r.verdict != "PASS":
                failed.append((fid, seed, r.verdict))
            if r.tol_rel != TOL_ELEMENTARY:
                failed.append((fid, seed, f"tol {r.tol_rel:g}"))
    wall = time.monotonic() - t0
    ok = not failed and wall < ELEM_BUDGET_S
    _report(capsys, 2, "elementary families", ok,
            f"9 families x seeds 1-3 at tol {TOL_ELEMENTARY:g}, "
            f"worst rel {worst:.2e}, {wall:.1f}s (budget {ELEM_BUDGET_S:g}s)"
            + (f", failed: {failed}" if failed else ""))


def test_criterion_3_full_catalog(capsys, full_run):
    reports, wall = full_run
    bad = []
    for r in reports:
        if r.verdict == "PASS":
            continue
        # FAIL would be acceptable only with a passing cross-check and a
        # written adjudication note; neither exists, so anything non-PASS
        # (including any INDETERMINATE) fails the gate outright
        bad.append((r.family, r.verdict))
    # every verdict was adjudicated at the cross-check bound a FAIL needs
    loose = [(r.family, r.xcheck_tol) for r in reports
             if r.xcheck_tol != ADJUDICATION_XCHECK]
    worst = max((r.max_rel_residual for r in reports
                 if not np.isnan(r.max_rel_residual)), default=float("nan"))
    ok = (not bad and not loose and wall < FULL_RUN_BUDGET_S
          and len(reports) == 25)
    _report(capsys, 3, "full catalog", ok,
            f"{sum(r.verdict == 'PASS' for r in reports)}/25 PASS, "
            f"worst rel {worst:.2e}, {wall:.1f}s "
            f"(budget {FULL_RUN_BUDGET_S:g}s)"
            + (f", non-PASS: {bad}" if bad else "")
            + (f", cross-check bound not {ADJUDICATION_XCHECK:g}: {loose}"
               if loose else ""))


def test_criterion_4_rootof_families(capsys, full_run, monkeypatch):
    reports, _ = full_run
    by_id = {r.family: r for r in reports}
    probs = []
    for fid in ("3.7", "3.8"):
        r = by_id[fid]
        if r.verdict != "PASS":
            probs.append(f"{fid} verdict {r.verdict}")
        if r.tol_rel != TOL_ROOT_FAMILIES:
            probs.append(f"{fid} ran at tol {r.tol_rel:g}")
        if r.xcheck_max_dev > IMPLICIT_FD_TOL:
            probs.append(f"{fid} implicit-vs-FD dev {r.xcheck_max_dev:.2e}")

    # observe |phi(z)| at every accepted root during a fresh (smaller) run
    rec = {"max_phi": 0.0, "solves": 0}
    orig = rootfind.bracket_bisect_newton

    def spy(fval, fprime, seeds, cfg):
        roots, status = orig(fval, fprime, seeds, cfg)
        okm = status == rootfind.OK
        if okm.any():
            phi = np.abs(fval(roots[okm], np.nonzero(okm)[0]))
            phi = phi[np.isfinite(phi)]
            if phi.size:
                rec["max_phi"] = max(rec["max_phi"], float(phi.max()))
        rec["solves"] += 1
        return roots, status

    monkeypatch.setattr(rootfind, "bracket_bisect_newton", spy)
    for fid in ("3.7", "3.8"):
        rr = verify_family(fid, n_scenarios=1, n_points=6, seed=2)
        if rr.verdict != "PASS":
            probs.append(f"{fid} instrumented run {rr.verdict}")
    if rec["solves"] == 0:
        probs.append("no root solves observed")
    if rec["max_phi"] > PHI_RESIDUAL_TOL:
        probs.append(f"|phi(root)| up to {rec['max_phi']:.2e}")

    _report(capsys, 4, "implicit-root families", not probs,
            f"3.7/3.8 at tol {TOL_ROOT_FAMILIES:g}, "
            f"|phi| <= {rec['max_phi']:.2e} over {rec['solves']} solves, "
            f"implicit-vs-FD dev {max(by_id['3.7'].xcheck_max_dev, by_id['3.8'].xcheck_max_dev):.2e}"
            + (f"; problems: {probs}" if probs else ""))


def test_criterion_5_oracle_battery(capsys):
    worst_quad = 0.0
    for f, lo, hi, exact in BATTERY:
        got = quad(f, lo, hi)
        worst_quad = max(worst_quad, abs(got - exact) / max(1.0, abs(exact)))

    worst_fd = 0.0
    worst_fam = "-"
    for fid in family_ids():
        fam = get_family(fid)
        rng = np.random.default_rng(np.random.SeedSequence([99, _famkey(fid)]))
        scn = draw_scenario(fam, rng, 10)
        rel, data, iset, _, _ = scenario_residuals(fam, scn, rng)
        dev = crosscheck_derivatives(fam, scn, data, iset, np.arange(10))
        if dev > worst_fd:
            worst_fd, worst_fam = dev, fid
    ok = worst_quad <= QUAD_BATTERY_TOL and worst_fd <= JET_FD_TOL
    _report(capsys, 5, "oracle battery", ok,
            f"quadrature worst rel {worst_quad:.2e} (tol {QUAD_BATTERY_TOL:g})"
            f", jet-vs-FD worst {worst_fd:.2e} at {worst_fam} "
            f"(tol {JET_FD_TOL:g}, 10 points/family)")


def test_criterion_6_base_point_invariance(capsys):
    with_bases = [fid for fid in family_ids()
                  if get_family(fid).base_names]
    mismatched = []
    for fid in with_bases:
        a = verify_family(fid, n_scenarios=2, n_points=8, seed=5)
        b = verify_family(fid, n_scenarios=2, n_points=8, seed=5,
                          base_shift=0.5)
        if a.verdict != b.verdict:
            mismatched.append((fid, a.verdict, b.verdict))
    ok = not mismatched and len(with_bases) > 0
    _report(capsys, 6, "base-point invariance", ok,
            f"{len(with_bases)} families with integral bases, shift +0.5"
            + (f", mismatched: {mismatched}" if mismatched else ""))


def test_criterion_7_determinism(capsys, tmp_path):
    outs = []
    for i in (1, 2):
        p = tmp_path / f"run{i}.json"
        rc = cli_main(["verify", "all", "--seed", "7", "--scenarios", "2",
                       "--points", "8", "--json", str(p)])
        assert rc == 0
        outs.append(p.read_bytes())
    ok = outs[0] == outs[1] and len(json.loads(outs[0])) == 25
    _report(capsys, 7, "determinism", ok,
            "verify all --seed 7 --json twice: byte-identical = "
            f"{outs[0] == outs[1]}")


def test_criterion_8_degenerate_members(capsys):
    r1 = verify_family("3.1", n_scenarios=5, n_points=20,
                       param_overrides={"c": 0.0})
    r2 = verify_family("3.9", n_scenarios=5, n_points=20,
                       param_overrides={"m": 0.0})
    ok = r1.verdict == "PASS" and r2.verdict == "PASS"
    _report(capsys, 8, "degenerate members", ok,
            f"3.1 with c=0: {r1.verdict} ({r1.max_rel_residual:.2e}), "
            f"3.9 with m=0: {r2.verdict} ({r2.max_rel_residual:.2e})")
