"""Ground-state phase classification: filled-sea tables, sector energies, scans.

Oracle strategy
---------------
* ``free_sea_energy`` and the strong-coupling sea ``(n**3 - n) / 12`` are
  checked against brute-force minimisation over occupation patterns
  (itertools), then frozen.
* The weak-coupling classifier is checked against closed-form boundary laws
  derived from the filled-sea counting itself (marginal-cost thresholds),
  evaluated through independent bisection on the classifier output.
* The strong-coupling boson boundary follows from chemical-potential balance
  alone (the sea energy is composition independent at infinite repulsion),
  giving h = 2*mu_B*(1 - mu_f/mu_B) exactly.
* ``sector_energy_table`` entries are cross-checked against an independent
  ``sector_ground`` solve and frozen at documented parameters; a sector
  whose solve fails is excluded, with its spin mirror.
* The general classifier is compared label-wise against both closed-form
  limits on a fixed probe grid.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfmix import cli, phases
from bfmix.bae import MixtureSpec, NonConvergence
from bfmix.excitations import sector_ground
from bfmix.phases import (
    FieldPoint,
    PhasePoint,
    PhaseScanResult,
    ScanRow,
    candidate_compositions,
    classify,
    free_sea_energy,
    general_phase,
    grand_energy,
    phase_scan,
    sector_energy_table,
    strong_coupling_phase,
    weak_coupling_phase,
    young_sectors,
)
from bfmix.phases import _regime_table

N42 = 42
L42 = 42.0
U42 = (2.0 * math.pi / L42) ** 2  # single-particle level spacing unit


# ----------------------------------------------------------------------------
# filled-sea counting functions
# ----------------------------------------------------------------------------


def _brute_free_sea(count: int, span: int = 6) -> int:
    """Minimal sum of squares of `count` distinct integers (brute force)."""
    if count == 0:
        return 0
    best = None
    for combo in itertools.combinations(range(-span, span + 1), count):
        s = sum(i * i for i in combo)
        best = s if best is None else min(best, s)
    return best


def test_free_sea_energy_matches_brute_force():
    for count in range(7):
        assert free_sea_energy(count) == _brute_free_sea(count)


def test_free_sea_energy_staircase_frozen():
    assert [free_sea_energy(p) for p in range(9)] == [0, 0, 1, 2, 6, 10, 19, 28, 44]
    # marginal costs come in equal pairs of perfect squares: 0, 1,1, 4,4, 9,9, ...
    deltas = [free_sea_energy(p + 1) - free_sea_energy(p) for p in range(14)]
    assert deltas == [0, 1, 1, 4, 4, 9, 9, 16, 16, 25, 25, 36, 36, 49]


def _brute_lattice_min(count: int, parity: int, span: int = 13) -> float:
    """Minimal sum of I^2 over `count` distinct I with 2I of given parity."""
    if count == 0:
        return 0.0
    doubled = [d for d in range(-span, span + 1) if (d - parity) % 2 == 0]
    best = None
    for combo in itertools.combinations(doubled, count):
        s = sum((d / 2.0) ** 2 for d in combo)
        best = s if best is None else min(best, s)
    return best


def test_lattice_min_sum_matches_brute_force():
    # every composition carries the same sea: the cheaper of the integer
    # and half-odd-integer ladders, (n**3 - n) / 12 in units of u
    for n in range(1, 7):
        _, energies, _ = _regime_table("strong", n, float(n))
        u = (2.0 * math.pi / n) ** 2
        sea = min(_brute_lattice_min(n, 0), _brute_lattice_min(n, 1))
        assert energies.tolist() == [u * sea] * len(energies)


def test_lattice_min_sum_frozen_values():
    ladders = {count: (_brute_lattice_min(count, 0), _brute_lattice_min(count, 1))
               for count in range(1, 5)}
    assert ladders == {1: (0.0, 0.25), 2: (1.0, 0.5), 3: (2.0, 2.75),
                       4: (6.0, 5.0)}
    for n, sea in [(1, 0.0), (2, 0.5), (3, 2.0), (4, 5.0)]:
        _, energies, _ = _regime_table("strong", n, float(n))
        u = (2.0 * math.pi / n) ** 2
        assert energies.tolist() == [u * sea] * len(energies)
    # the large-count seas used by the strong-coupling classifier at N = 42:
    # the half-odd ladder (6170.5) undercuts the integer one (6181)
    assert free_sea_energy(N42) == 6181
    _, energies, _ = _regime_table("strong", N42, L42)
    assert energies.tolist() == [U42 * 6170.5] * len(energies)


# ----------------------------------------------------------------------------
# composition enumeration
# ----------------------------------------------------------------------------


def test_young_sectors_frozen_and_ordered():
    assert young_sectors(6) == [(0, 0), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 2)]
    assert len(young_sectors(42)) == 169


def test_young_sectors_satisfy_wedge():
    for n in (2, 5, 6, 11, 42):
        sectors = young_sectors(n)
        assert len(set(sectors)) == len(sectors)
        for m, mp in sectors:
            assert n - m >= m - mp >= mp >= 0


def test_candidate_compositions_structure():
    rows = candidate_compositions(6)
    assert rows == [
        ((0, 0), (6, 0, 0)),
        ((1, 0), (5, 1, 0)),
        ((1, 0), (5, 0, 1)),
        ((2, 0), (4, 2, 0)),
        ((2, 0), (4, 0, 2)),
        ((2, 1), (4, 1, 1)),
        ((3, 0), (3, 3, 0)),
        ((3, 0), (3, 0, 3)),
        ((3, 1), (3, 2, 1)),
        ((3, 1), (3, 1, 2)),
        ((4, 2), (2, 2, 2)),
    ]
    for (m, mp), (b, up, dn) in rows:
        assert b + up + dn == 6
        assert b >= max(up, dn)  # wedge plus spin mirror
        assert (b, up, dn) == (6 - m, m - mp, mp) or (b, up, dn) == (6 - m, mp, m - mp)


def test_classify_labels():
    assert classify((6, 0, 0)) == "B"
    assert classify((2, 2, 2)) == "S"
    assert classify((4, 1, 1)) == "S"
    assert classify((3, 3, 0)) == "BF1"
    assert classify((3, 0, 3)) == "BF2"
    assert classify((2, 3, 1)) == "BF1F2"
    assert classify((1, 2, 3)) == "BF1F2"
    assert classify((0, 6, 0)) == "F1"
    assert classify((0, 0, 6)) == "F2"
    assert classify((0, 3, 3)) == "F"


# ----------------------------------------------------------------------------
# field bookkeeping
# ----------------------------------------------------------------------------


def test_field_point_ratio_round_trip():
    fp = FieldPoint.from_ratio(2.5, h=0.3)
    assert fp.mu_b == 1.0
    assert fp.mu_f == 2.5
    assert fp.h == 0.3
    assert fp.ratio == pytest.approx(2.5, rel=1e-15)
    fp2 = FieldPoint.from_ratio(0.5, h=-1.0, mu_b=2.0)
    assert fp2.mu_f == 1.0 and fp2.ratio == 0.5


def test_field_point_validation():
    with pytest.raises(ValueError):
        FieldPoint(h=0.0, mu_b=0.0, mu_f=1.0).ratio
    with pytest.raises(ValueError):
        FieldPoint.from_ratio(1.0, h=0.0, mu_b=0.0)
    with pytest.raises(ValueError):
        FieldPoint.from_ratio(1.0, h=0.0, mu_b=-2.0)


def test_grand_energy_arithmetic():
    fp = FieldPoint(h=0.5, mu_b=1.0, mu_f=3.0)
    # E - mu_b*n_b - mu_f*(up+dn) - (h/2)*(up-dn)
    assert grand_energy((3, 2, 1), 1.0, fp) == pytest.approx(-11.25, abs=1e-14)
    assert grand_energy((3, 1, 2), 1.0, fp) == pytest.approx(-10.75, abs=1e-14)
    assert grand_energy((6, 0, 0), 2.0, fp) == pytest.approx(-4.0, abs=1e-14)


# ----------------------------------------------------------------------------
# weak-coupling classifier
# ----------------------------------------------------------------------------


def _bisect_weak_label(h_lo, h_hi, ratio, n, L, label_lo, steps=60):
    """Bisect on h for the first departure from label_lo along increasing h."""
    for _ in range(steps):
        mid = 0.5 * (h_lo + h_hi)
        point = weak_coupling_phase(FieldPoint.from_ratio(ratio, mid), n, L)
        if point.label == label_lo:
            h_lo = mid
        else:
            h_hi = mid
    return 0.5 * (h_lo + h_hi)


def test_weak_boson_boundary_meets_field_axis_at_twice_mu_b():
    # At mu_f = 0 the condensate loses to one polarised fermion exactly when
    # h/2 > mu_b (the added fermion costs no kinetic energy), so the boundary
    # must cross the field axis at h = 2*mu_b with no coupling correction.
    assert weak_coupling_phase(FieldPoint.from_ratio(0.0, 1.9), N42, L42).label == "B"
    assert weak_coupling_phase(FieldPoint.from_ratio(0.0, 2.1), N42, L42).label != "B"
    boundary = _bisect_weak_label(1.5, 2.5, 0.0, N42, L42, "B")
    assert boundary == pytest.approx(2.0, abs=1e-9)


def test_weak_pair_staircase_along_balanced_axis():
    # Along h = 0 the balanced-pair count steps through odd values and caps at
    # N/3; each threshold is 1 + u*j**2 where u*j**2 is the marginal kinetic
    # cost of the next fermion pair (both seas add the same new level).
    grid = np.linspace(0.0, 8.0, 1601)
    sequence = []
    thresholds = []
    prev = None
    for r in grid:
        p = weak_coupling_phase(FieldPoint.from_ratio(float(r), 0.0), N42, L42)
        pairs = min(p.populations[1], p.populations[2])
        if pairs != prev:
            sequence.append(pairs)
            thresholds.append(float(r))
            prev = pairs
    assert sequence == [0, 1, 3, 5, 7, 9, 11, 13, 14]
    predicted = [1.0 + U42 * j * j for j in range(8)]
    for measured, expect in zip(thresholds[1:], predicted):
        assert measured == pytest.approx(expect, abs=0.0051)
    # the cap at N/3 holds to the end of the sweep
    final = weak_coupling_phase(FieldPoint.from_ratio(8.0, 0.0), N42, L42)
    assert final.populations == (14, 14, 14)


def _bisect_weak_ratio(r_lo, r_hi, h, n, L, pops_lo, steps=60):
    for _ in range(steps):
        mid = 0.5 * (r_lo + r_hi)
        point = weak_coupling_phase(FieldPoint.from_ratio(mid, h), n, L)
        if point.populations == pops_lo:
            r_lo = mid
        else:
            r_hi = mid
    return 0.5 * (r_lo + r_hi)


def test_weak_valley_boundaries_share_filled_sea_constant():
    # The partially polarised window between the (3,3) and (5,5) balanced
    # states is bounded by 2*(mu_f - mu_b) +/- h = C*u where C is the
    # filled-sea cost of promoting a 3-fermion sea to a 5-fermion sea:
    # C = s(5) - s(3) = 10 - 2 = 8 on both sides.
    h = 0.04
    c_expected = free_sea_energy(5) - free_sea_energy(3)
    assert c_expected == 8
    assert weak_coupling_phase(FieldPoint.from_ratio(1.05, h), N42, L42).populations == (36, 3, 3)
    assert weak_coupling_phase(FieldPoint.from_ratio(1.08, h), N42, L42).populations == (34, 5, 3)
    assert weak_coupling_phase(FieldPoint.from_ratio(1.12, h), N42, L42).populations == (32, 5, 5)
    left = _bisect_weak_ratio(1.04, 1.09, h, N42, L42, (36, 3, 3))
    right = _bisect_weak_ratio(1.09, 1.13, h, N42, L42, (34, 5, 3))
    c_left = (2.0 * (left - 1.0) + h) / U42
    c_right = (2.0 * (right - 1.0) - h) / U42
    assert c_left == pytest.approx(c_expected, abs=1e-6)
    assert c_right == pytest.approx(c_expected, abs=1e-6)


def test_weak_scan_zeeman_mirror():
    mirror = {"BF1": "BF2", "BF2": "BF1", "F1": "F2", "F2": "F1"}
    ratios = [0.5, 1.08, 1.5, 3.0]
    hs = [0.04, 0.8, 2.5]
    for r in ratios:
        for h in hs:
            plus = weak_coupling_phase(FieldPoint.from_ratio(r, h), N42, L42)
            minus = weak_coupling_phase(FieldPoint.from_ratio(r, -h), N42, L42)
            b, up, dn = plus.populations
            assert minus.populations == (b, dn, up)
            assert minus.label == mirror.get(plus.label, plus.label)


@settings(max_examples=40, deadline=None)
@given(
    ratio=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    h=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_weak_phase_is_grand_minimum_over_candidates(ratio, h):
    fields = FieldPoint.from_ratio(ratio, h)
    point = weak_coupling_phase(fields, N42, L42)
    b, up, dn = point.populations
    assert b + up + dn == N42 and b >= max(up, dn)
    best = grand_energy(
        point.populations,
        U42 * (free_sea_energy(up) + free_sea_energy(dn)),
        fields,
    )
    for _, pops in candidate_compositions(N42):
        e = U42 * (free_sea_energy(pops[1]) + free_sea_energy(pops[2]))
        assert best <= grand_energy(pops, e, fields) + 1e-12


# ----------------------------------------------------------------------------
# strong-coupling classifier
# ----------------------------------------------------------------------------


def _bisect_strong_label(h_lo, h_hi, ratio, n, L, label_lo, steps=60):
    for _ in range(steps):
        mid = 0.5 * (h_lo + h_hi)
        point = strong_coupling_phase(FieldPoint.from_ratio(ratio, mid), n, L)
        if point.label == label_lo:
            h_lo = mid
        else:
            h_hi = mid
    return 0.5 * (h_lo + h_hi)


def test_strong_boson_boundary_is_chemical_potential_balance():
    # At infinite repulsion the sea energy is composition independent, so the
    # condensate boundary is pure bookkeeping: h = 2*mu_b*(1 - ratio).
    for ratio in (0.0, 0.25, 0.75):
        expected = 2.0 * (1.0 - ratio)
        boundary = _bisect_strong_label(expected - 0.5, expected + 0.5, ratio, N42, L42, "B")
        assert boundary == pytest.approx(expected, abs=1e-9)


def test_strong_corner_populations_frozen():
    assert strong_coupling_phase(FieldPoint.from_ratio(8.0, 0.5), N42, L42).populations == (14, 14, 14)
    assert strong_coupling_phase(FieldPoint.from_ratio(8.0, 0.5), N42, L42).label == "S"
    polar = strong_coupling_phase(FieldPoint.from_ratio(8.0, 20.0), N42, L42)
    assert polar.populations == (21, 21, 0)
    assert polar.label == "BF1"
    assert strong_coupling_phase(FieldPoint.from_ratio(8.0, 0.5), 12, 12.0).populations == (4, 4, 4)


# ----------------------------------------------------------------------------
# finite-coupling sector table and general classifier
# ----------------------------------------------------------------------------

TABLE6_C1 = {
    (6, 0, 0): 3.676613867303,
    (5, 1, 0): 3.925019372938,
    (5, 0, 1): 3.925019372938,
    (4, 2, 0): 4.098626490617,
    (4, 0, 2): 4.098626490617,
    (4, 1, 1): 4.182878339460,
    (3, 3, 0): 6.185329333676,
    (3, 0, 3): 6.185329333676,
    (3, 2, 1): 4.347444286203,
    (3, 1, 2): 4.347444286203,
    (2, 2, 2): 4.502443765539,
}


@pytest.fixture(scope="module")
def table6():
    return sector_energy_table(1.0, 6, 6.0)


def test_sector_energy_table_frozen(table6):
    comps, energies, excluded = table6
    assert excluded == ()
    assert comps == list(TABLE6_C1.keys())
    for pops, e in zip(comps, energies):
        assert e == pytest.approx(TABLE6_C1[pops], rel=1e-9)
    # spin-mirror compositions are exactly degenerate
    assert energies[comps.index((5, 1, 0))] == energies[comps.index((5, 0, 1))]
    assert energies[comps.index((3, 2, 1))] == energies[comps.index((3, 1, 2))]


def test_sector_energy_table_matches_direct_solve(table6):
    comps, energies, _ = table6
    _, _, obs = sector_ground(MixtureSpec("ffb", 6, 5, 4, 6.0, 1.0))
    assert energies[comps.index((4, 1, 1))] == pytest.approx(obs.E, rel=1e-12)


def _fail_sectors(monkeypatch, n, failing):
    """Make ``sector_ground`` raise NonConvergence on the listed (M, M')."""
    solve_sector = phases.sector_ground

    def patched(spec):
        if failing is None or (n - spec.mp, spec.m - spec.mp) in failing:
            raise NonConvergence("forced failure", 1.0)
        return solve_sector(spec)

    monkeypatch.setattr(phases, "sector_ground", patched)


def test_failed_sector_is_excluded_with_its_mirror(monkeypatch, tmp_path,
                                                   capsys):
    _fail_sectors(monkeypatch, 4, {(1, 0)})
    comps, energies, excluded = sector_energy_table(1.0, 4, 4.0)
    assert excluded == ((1, 0),)
    assert comps == [pops for sector, pops in candidate_compositions(4)
                     if sector != (1, 0)]
    assert (3, 1, 0) not in comps and (3, 0, 1) not in comps
    assert len(energies) == len(comps)
    out = tmp_path / "phase.csv"
    assert cli.main(["phase", "--regime", "general", "--n", "4", "--l", "4",
                     "--c", "1", "--ratio", "0:2:1", "--h", "0",
                     "--out", str(out)]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "phase.csv.manifest.json").read_text())
    assert manifest["inputs"]["excluded_sectors"] == [[1, 0]]
    assert "1 sector(s) excluded (no convergence): [(1, 0)]" in \
        capsys.readouterr().err


def test_every_sector_failed_raises(monkeypatch, capsys):
    _fail_sectors(monkeypatch, 4, None)
    with pytest.raises(NonConvergence, match="every sector failed"):
        sector_energy_table(1.0, 4, 4.0)
    assert cli.main(["phase", "--regime", "general", "--n", "4", "--l", "4",
                     "--c", "1", "--ratio", "1", "--h", "0"]) \
        == cli.EXIT_NUMERICAL
    assert "numerical failure: every sector failed" in capsys.readouterr().err


def test_general_phase_points_frozen():
    pb = general_phase(1.0, FieldPoint.from_ratio(0.2, 0.0), 6, 6.0)
    assert (pb.populations, pb.label) == ((6, 0, 0), "B")
    ps = general_phase(1.0, FieldPoint.from_ratio(8.0, 0.1), 6, 6.0)
    assert (ps.populations, ps.label) == ((2, 2, 2), "S")
    pf = general_phase(1.0, FieldPoint.from_ratio(1.5, -4.0), 6, 6.0)
    assert (pf.populations, pf.label) == ((3, 0, 3), "BF2")
    pg = general_phase(1.0, FieldPoint.from_ratio(0.2, -4.0), 6, 6.0)
    assert (pg.populations, pg.label) == ((4, 0, 2), "BF2")


PROBE_RATIOS = (0.3, 0.9, 1.3, 1.9, 2.6)
PROBE_FIELDS = (-3.1, -1.3, 0.17, 1.3, 3.1)


def _label_agreement(c, reference_phase):
    scan = phase_scan("general", PROBE_RATIOS, PROBE_FIELDS, c=c, n=6, L=6.0)
    agree = 0
    for row in scan.rows:
        fp = FieldPoint.from_ratio(row.ratio, row.h)
        agree += row.label == reference_phase(fp, 6, 6.0).label
    return agree


def test_general_matches_strong_labels_at_large_coupling():
    # mismatches concentrate on points adjacent to phase boundaries
    assert _label_agreement(1e3, strong_coupling_phase) >= 22


def test_general_matches_weak_labels_at_tiny_coupling():
    assert _label_agreement(1e-3, weak_coupling_phase) >= 20


def test_polarized_family_undershoots_free_bound_at_tiny_coupling():
    # Documented scope limit: at extreme weak coupling the real-root family
    # for a polarised two-fermion sector drops below the free-gas variational
    # bound u*s(2), i.e. it stops representing the physical sector ground,
    # while the bff family overshoots it.  All orderings still agree where
    # real roots are exact (all-boson, one-fermion, strong coupling).
    u6 = (2.0 * math.pi / 6.0) ** 2
    free_bound = u6 * free_sea_energy(2)
    _, _, obs_fbf = sector_ground(MixtureSpec("fbf", 6, 4, 0, 6.0, 1e-3))
    _, _, obs_ffb = sector_ground(MixtureSpec("ffb", 6, 4, 4, 6.0, 1e-3))
    _, _, obs_bff = sector_ground(MixtureSpec("bff", 6, 2, 0, 6.0, 1e-3))
    assert obs_fbf.E == pytest.approx(obs_ffb.E, rel=1e-8)
    assert obs_ffb.E == pytest.approx(0.5529762131151855, rel=1e-6)
    assert obs_ffb.E < free_bound
    assert obs_bff.E > free_bound


# ----------------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------------


def test_phase_scan_matches_pointwise_classifier():
    # every regime, on a grid with h = 0, where each composition ties
    # exactly with its spin mirror and the tie rule decides
    ratios = [0.0, 0.5, 1.0, 2.0]
    hs = [-2.0, 0.0, 1.0, 2.0]  # includes exact boundary points
    pointwise = {
        "strong": (6, lambda f: strong_coupling_phase(f, 6, 6.0)),
        "weak": (6, lambda f: weak_coupling_phase(f, 6, 6.0)),
        "general": (4, lambda f: general_phase(1.0, f, 4, 4.0)),
    }
    for regime, (n, classifier) in pointwise.items():
        scan = phase_scan(regime, ratios, hs, c=1.0, n=n, L=float(n))
        assert isinstance(scan, PhaseScanResult)
        assert len(scan.rows) == len(ratios) * len(hs)
        pops_arr, energies, excluded = _regime_table(regime, n, float(n),
                                                     1.0)
        assert scan.excluded_sectors == excluded
        if regime != "general":
            assert excluded == ()
        k = 0
        for r in ratios:
            for h in hs:
                row = scan.rows[k]
                k += 1
                assert isinstance(row, ScanRow)
                assert (row.ratio, row.h) == (r, h)
                fields = FieldPoint.from_ratio(r, h)
                point = classifier(fields)
                pops = (row.n_b, row.n_up, row.n_down)
                assert pops == point.populations
                assert row.label == point.label
                # independent tie rule: the largest (N_B, N_up) among the
                # candidates of minimal grand energy
                g = [grand_energy(tuple(p), e, fields)
                     for p, e in zip(pops_arr, energies)]
                tied = [tuple(int(v) for v in p)
                        for p, gv in zip(pops_arr, g) if gv == min(g)]
                assert pops == max(tied, key=lambda t: (t[0], t[1]))


def test_phase_scan_weak_boundary_rows():
    scan = phase_scan("weak", [0.0, 1.0, 1.024, 2.2], [0.0, 0.04], n=N42, L=L42)
    rows = {(row.ratio, row.h): row for row in scan.rows}
    assert (rows[(1.0, 0.0)].n_b, rows[(1.0, 0.0)].label) == (42, "B")  # exact tie keeps the condensate
    assert (rows[(1.0, 0.04)].n_b, rows[(1.0, 0.04)].n_up, rows[(1.0, 0.04)].n_down) == (41, 1, 0)
    assert rows[(1.024, 0.0)].label == "S"
    assert (rows[(2.2, 0.0)].n_b, rows[(2.2, 0.0)].n_up, rows[(2.2, 0.0)].n_down) == (14, 14, 14)


def test_phase_scan_general_is_deterministic():
    scan = phase_scan("general", [0.2, 1.5], [0.0, -4.0], c=1.0, n=6, L=6.0)
    again = phase_scan("general", [0.2, 1.5], [0.0, -4.0], c=1.0, n=6, L=6.0)
    assert scan.rows == again.rows
    labels = [row.label for row in scan.rows]
    assert labels == ["B", "BF2", "S", "BF2"]


def test_phase_scan_rejects_unknown_regime():
    with pytest.raises(ValueError):
        phase_scan("tepid", [0.5], [0.0], n=6, L=6.0)


def test_phase_point_fields():
    point = strong_coupling_phase(FieldPoint.from_ratio(0.1, 0.0), 6, 6.0)
    assert isinstance(point, PhasePoint)
    assert point.populations == (6, 0, 0)
    assert point.label == "B"
    assert point.excluded_sectors == ()
