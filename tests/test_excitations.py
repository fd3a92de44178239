"""Excitation builders, sector minima, dispersion sweeps, histograms.

Closed-form oracles used here:
* impenetrable limit of the all-boson ground state: E -> u * sum I_j^2
  with u = (2 pi / L)^2 and the lattice rescaling (1 + 2N/(cL))^-2;
* impenetrable limit of the one-fermion state: the auxiliary root adds
  a uniform shift J1/N to every charge quantum number, so
  E -> u * sum (I_j - J1/N)^2.
Frozen decimal literals are solver regressions at the stated inputs,
cross-checked between orderings at generation time.
"""
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfmix import bae, excitations
from bfmix.bae import (InvalidConfig, MixtureSpec, NonConvergence,
                       QuantumNumberConfig, RootSet, auxiliary_bounds,
                       energy_momentum, required_parities, residual, solve)
from bfmix.excitations import (AddOneFermion, GroundState, ParticleHole,
                               TwoFermions, _mirror, _offset_runs,
                               _parity_values, _sector_candidates,
                               _sym_run, add_fermion_numbers,
                               density_histogram,
                               dispersion, ground_state_numbers, particle_hole_numbers,
                               sector_ground, two_fermion_numbers)
from bfmix.phases import young_sectors

ALL_CASES = ("bff", "fbf", "ffb")


def _gs_spec(case: str, n: int, L: float, c: float) -> MixtureSpec:
    return MixtureSpec.from_populations(case, (n, 0, 0), L, c)


# ------------------------------------------------------------- builders

def test_sym_run_is_symmetric_consecutive():
    assert _sym_run(1) == (0,)
    assert _sym_run(2) == (-1, 1)
    assert _sym_run(5) == (-4, -2, 0, 2, 4)
    for count in range(1, 9):
        run = _sym_run(count)
        assert len(run) == count
        assert run == tuple(sorted(-v for v in run))
        assert all(b - a == 2 for a, b in zip(run, run[1:]))


def test_offset_runs_cover_near_symmetric_shifts():
    # parity matches the symmetric run: even shifts {-2, 0, 2}
    assert _offset_runs(4, 1) == [(-5, -3, -1, 1), (-3, -1, 1, 3),
                                  (-1, 1, 3, 5)]
    # parity mismatch: odd shifts {-3, -1, 1, 3}
    assert _offset_runs(4, 0) == [(-6, -4, -2, 0), (-4, -2, 0, 2),
                                  (-2, 0, 2, 4), (0, 2, 4, 6)]
    assert _offset_runs(1, 0) == [(-2,), (0,), (2,)]
    for runs in (_offset_runs(5, 0), _offset_runs(5, 1)):
        for run in runs:
            assert all(b - a == 2 for a, b in zip(run, run[1:]))


def test_ground_state_numbers_all_cases():
    for case in ALL_CASES:
        for n in (1, 2, 5, 8):
            qn = ground_state_numbers(_gs_spec(case, n, float(n), 1.0))
            assert qn.two_i == _sym_run(n)
    spec = _gs_spec("ffb", 4, 4.0, 1.0)
    qn = ground_state_numbers(spec)
    assert qn.two_j == _sym_run(4) and qn.two_jp == _sym_run(4)
    with pytest.raises(InvalidConfig):
        ground_state_numbers(MixtureSpec("bff", 4, 1, 0, 4.0, 1.0))


def test_particle_hole_numbers():
    spec = _gs_spec("bff", 5, 5.0, 1.0)
    qn = particle_hole_numbers(spec, 2, 4.0)
    assert qn.two_i == (-4, 0, 2, 4, 8)
    with pytest.raises(InvalidConfig):
        particle_hole_numbers(spec, 0, 4.0)     # bad hole index
    with pytest.raises(InvalidConfig):
        particle_hole_numbers(spec, 2, 3.5)     # wrong parity
    with pytest.raises(InvalidConfig):
        particle_hole_numbers(spec, 2, 2.0)     # inside the sequence
    with pytest.raises(InvalidConfig):
        particle_hole_numbers(spec, 5, 2.0)     # collides after removal
    for bad in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(InvalidConfig, match="particle_number"):
            particle_hole_numbers(spec, 2, bad)


def test_add_fermion_numbers_structure():
    n = 6
    for case in ALL_CASES:
        m, mp = {"bff": (1, 0), "fbf": (n - 1, 0),
                 "ffb": (n - 1, n - 1)}[case]
        spec = MixtureSpec(case, n, m, mp, float(n), 1.0)
        qn = add_fermion_numbers(spec, 0.5)
        window = _sym_run(n + 1)
        # charge family: window minus the edge opposite the sign of J1
        assert qn.two_i == tuple(v for v in window if v != window[0])
        assert len(qn.two_i) == n
        if case == "bff":
            assert qn.two_j == (1,)
        else:
            assert qn.two_j == tuple(v for v in _sym_run(n) if v != 1)
        if case == "ffb":
            assert qn.two_jp == _sym_run(n - 1)
    spec = MixtureSpec("bff", n, 1, 0, float(n), 1.0)
    hole = add_fermion_numbers(spec, -0.5)
    assert hole.two_i == tuple(v for v in _sym_run(n + 1)
                               if v != _sym_run(n + 1)[-1])
    picked = add_fermion_numbers(spec, 0.5, i_hole=1.0)
    assert 2 not in picked.two_i and len(picked.two_i) == n
    with pytest.raises(InvalidConfig):
        add_fermion_numbers(spec, 0.0)          # wrong parity
    with pytest.raises(InvalidConfig):
        add_fermion_numbers(spec, (n - 1) / 2)  # |J1| >= (N-1)/2
    with pytest.raises(InvalidConfig):
        add_fermion_numbers(spec, 0.5, i_hole=0.75)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(InvalidConfig, match="J1"):
            add_fermion_numbers(spec, bad)
        with pytest.raises(InvalidConfig, match="i_hole"):
            add_fermion_numbers(spec, 0.5, i_hole=bad)
    with pytest.raises(InvalidConfig):
        add_fermion_numbers(_gs_spec("bff", n, float(n), 1.0), 0.5)


def test_two_fermion_numbers():
    spec = MixtureSpec("bff", 4, 2, 0, 4.0, 1.0)
    qn = two_fermion_numbers(spec, -0.5, 1.5)
    assert qn.two_i == _sym_run(4)
    assert qn.two_j == (-1, 3) and qn.two_jp == ()
    spec1 = MixtureSpec("bff", 4, 2, 1, 4.0, 1.0)
    qn1 = two_fermion_numbers(spec1, -1.0, 1.0)
    assert qn1.two_jp == (0,)
    with pytest.raises(InvalidConfig):
        two_fermion_numbers(spec, 0.5, 0.5)     # equal
    with pytest.raises(InvalidConfig):
        two_fermion_numbers(spec, 1.5, -0.5)    # disordered
    with pytest.raises(InvalidConfig):
        two_fermion_numbers(spec, -0.5, 2.5)    # out of window
    for bad in (float("inf"), float("nan")):
        with pytest.raises(InvalidConfig, match="J2"):
            two_fermion_numbers(spec, -0.5, bad)
    with pytest.raises(InvalidConfig):
        two_fermion_numbers(MixtureSpec("ffb", 4, 2, 0, 4.0, 1.0), -0.5, 0.5)


# ------------------------------------------------------- sector minima

def test_sector_ground_matches_frozen_one_fermion():
    # one spin-up fermion among bosons, N=4, L=4, c=1: every ordering
    # reaches the same minimum (regression values from generation time)
    for case, (m, mp) in (("bff", (1, 0)), ("fbf", (3, 0)), ("ffb", (3, 3))):
        spec = MixtureSpec(case, 4, m, mp, 4.0, 1.0)
        _, _, obs = sector_ground(spec)
        assert obs.E == pytest.approx(2.9034245354728134, rel=1e-9)
        assert abs(obs.P) == pytest.approx(0.7853981633974483, rel=1e-9)


def test_sector_ground_one_fermion_n5():
    for case, (m, mp) in (("bff", (1, 0)), ("fbf", (4, 0)), ("ffb", (4, 4))):
        spec = MixtureSpec(case, 5, m, mp, 5.0, 1.0)
        _, _, obs = sector_ground(spec)
        assert obs.E == pytest.approx(3.3706520379651086, rel=1e-9)


def test_sector_ground_mixed_species_needs_ffb():
    # 1 boson + 2 up + 1 down at N=4, L=4, c=1: the ffb ordering reaches
    # the sector minimum with real roots; the bff ordering's real-root
    # states sit strictly above it (its minimum there needs non-real
    # pairs), which is why finite-coupling phase tables solve in ffb.
    _, _, obs = sector_ground(MixtureSpec("ffb", 4, 2, 1, 4.0, 1.0))
    assert obs.E == pytest.approx(3.8676416170493373, rel=1e-9)
    _, _, obs_bff = sector_ground(MixtureSpec("bff", 4, 2, 1, 4.0, 1.0))
    assert obs_bff.E > obs.E + 1.0


def test_sector_ground_reduces_to_ground_state_numbers():
    for case in ALL_CASES:
        spec = _gs_spec(case, 4, 4.0, 1.0)
        qn, _, obs = sector_ground(spec)
        assert qn == ground_state_numbers(spec)
        assert obs.E == pytest.approx(2.3227526023297775, rel=1e-9)


@pytest.mark.parametrize("case, n, m, mp, bounds", [
    ("bff", 6, 3, 1, (5, 3)),   # (N - M', M - M' + 1)
    ("bff", 4, 0, 0, (4, 1)),
    ("fbf", 6, 3, 1, (5, 3)),   # (N - M', M)
    ("fbf", 4, 4, 0, (4, 4)),
    ("ffb", 4, 4, 4, (5, 4)),   # (N - M + 1 + M', M)
    ("ffb", 6, 3, 1, (5, 3)),
    ("ffb", 5, 4, 2, (4, 4)),
])
def test_auxiliary_bounds_frozen(case, n, m, mp, bounds):
    assert auxiliary_bounds(MixtureSpec(case, n, m, mp, float(n), 1.0)) \
        == bounds


def _unfiltered_candidates(spec: MixtureSpec):
    """sector_ground's enumeration without the admissibility filter."""
    def runs(count, parity):
        if count == 1:
            return [(v,) for v in _parity_values(-spec.n, spec.n, parity)]
        return _offset_runs(count, parity)
    pi_, pj, pjp = required_parities(spec)
    return product(runs(spec.n, pi_), runs(spec.m, pj), runs(spec.mp, pjp))


def test_sector_candidates_converge_iff_admissible():
    # the auxiliary bounds predict exactly which candidates solve: every
    # admissible candidate converges, every pruned one fails or runs away.
    # Specs: the ffb spec of every phase-table sector at N = 4 (ffb (4, 4)
    # and (3, 3) among them), then the other N = 4 sectors of this module.
    specs = [MixtureSpec("ffb", 4, 4 - m + mp, 4 - m, 4.0, 1.0)
             for m, mp in young_sectors(4)]
    specs += [MixtureSpec(case, 4, m, mp, 4.0, 1.0)
              for case, m, mp in (("bff", 0, 0), ("bff", 1, 0),
                                  ("bff", 2, 0), ("bff", 2, 1),
                                  ("fbf", 4, 0), ("fbf", 3, 0),
                                  ("ffb", 2, 1))]
    counts = {True: 0, False: 0}
    for spec in specs:
        b_lam, b_mu = auxiliary_bounds(spec)
        for two_i, two_j, two_jp in _unfiltered_candidates(spec):
            admissible = (all(abs(v) < b_lam for v in two_j)
                          and all(abs(v) < b_mu for v in two_jp))
            try:
                solve(spec, QuantumNumberConfig(two_i, two_j, two_jp))
                converged = True
            except NonConvergence:
                converged = False
            assert converged == admissible, (spec, two_i, two_j, two_jp)
            counts[admissible] += 1
    assert counts[True] > 0 and counts[False] > 0


def test_sector_candidates_closed_under_mirror():
    # sector_ground solves one member of each mirror pair, which is only
    # sound when the mirror of every candidate is a candidate too
    assert _mirror(((-3, -1, 1), (0, 2), ())) == ((-1, 1, 3), (-2, 0), ())
    checked = 0
    for case in ALL_CASES:
        for n in range(1, 7):
            for m in range(n + 1):
                for mp in range(m + 1):
                    spec = MixtureSpec(case, n, m, mp, float(n), 1.0)
                    try:
                        combos = _sector_candidates(spec)
                    except NonConvergence:
                        continue
                    assert {_mirror(x) for x in combos} == set(combos)
                    checked += 1
    assert checked > 50


def test_sector_ground_mirror_tie_goes_lexicographic():
    # the minimum and its mirror have the same E and |P|; the tie rule
    # picks the lexicographically smaller quantum numbers, whichever of
    # the two solves happens to round lower
    qn, _, obs = sector_ground(MixtureSpec("fbf", 7, 4, 1, 7.0, 3.0))
    assert qn == QuantumNumberConfig((-7, -5, -3, -1, 1, 3, 5),
                                     (-1, 1, 3, 5), (3,))
    assert obs.E == pytest.approx(10.883905356709922, rel=1e-12)
    assert obs.P == pytest.approx(-0.8975979010256552, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(ALL_CASES), n=st.integers(1, 4),
       data=st.data(), c=st.floats(0.01, 100.0), L=st.floats(1.0, 10.0))
def test_sector_ground_roots_meet_tolerance(case, n, data, c, L):
    m = data.draw(st.integers(0, n), label="m")
    mp = data.draw(st.integers(0, m), label="mp")
    spec = MixtureSpec(case, n, m, mp, L, c)
    try:
        qn, roots, obs = sector_ground(spec)
    except NonConvergence:
        return  # no real-root candidate in this sector
    assert np.abs(residual(spec, qn, roots)).max() < 1e-10
    assert obs.P == pytest.approx(float(roots.k.sum()), rel=1e-8, abs=1e-8)


def test_sector_ground_without_admissible_candidate_raises():
    # ffb N=5, M=4, M'=2: every J run reaches |2J| = 4 = B_lambda
    with pytest.raises(NonConvergence, match="admissible"):
        sector_ground(MixtureSpec("ffb", 5, 4, 2, 5.0, 1.0))


# ------------------------------------------- strong-coupling closed forms

def test_tonks_limit_all_boson_lattice():
    spec = _gs_spec("bff", 4, 4.0, 1e6)
    qn = ground_state_numbers(spec)
    obs = energy_momentum(spec, qn, solve(spec, qn))
    u = (2.0 * np.pi / spec.L) ** 2
    scale = (1.0 + 2.0 * spec.n / (spec.c * spec.L)) ** 2
    assert obs.E * scale / u == pytest.approx(5.0, rel=1e-4)


def test_tonks_limit_one_fermion_shifted_lattice():
    # J1 shifts every charge number by J1/N in the impenetrable limit
    spec = MixtureSpec("bff", 4, 1, 0, 4.0, 1e6)
    qn = add_fermion_numbers(spec, 0.5)
    obs = energy_momentum(spec, qn, solve(spec, qn))
    u = (2.0 * np.pi / spec.L) ** 2
    scale = (1.0 + 2.0 * spec.n / (spec.c * spec.L)) ** 2
    shifted = sum((v / 2.0 - 0.5 / 4.0) ** 2 for v in qn.two_i)
    assert shifted == pytest.approx(5.5625)
    assert obs.E * scale / u == pytest.approx(shifted, rel=1e-4)


# ------------------------------------------------------------ dispersion

def test_particle_hole_dispersion_small():
    spec = _gs_spec("bff", 4, 4.0, 1.0)
    pts = dispersion(spec, ParticleHole())
    assert len(pts) == 16  # 4 holes x 4 particle slots
    assert all(p.status == "ok" for p in pts)
    assert all(p.de >= -1e-9 for p in pts)
    assert all(len(p.params) == 2 for p in pts)
    # ground-state family is the zero of the spectrum
    gs_pts = dispersion(spec, GroundState())
    assert len(gs_pts) == 1
    assert gs_pts[0].de == pytest.approx(0.0, abs=1e-12)
    assert gs_pts[0].p == pytest.approx(0.0, abs=1e-12)


def test_add_fermion_dispersion_cross_ordering():
    de_by_case = {}
    for case in ALL_CASES:
        pts = dispersion(_gs_spec(case, 4, 4.0, 1.0), AddOneFermion())
        assert all(p.status == "ok" for p in pts)
        de_by_case[case] = sorted(p.de for p in pts)
    for case in ("fbf", "ffb"):
        assert de_by_case[case] == pytest.approx(de_by_case["bff"],
                                                 rel=1e-8)
    assert min(de_by_case["bff"]) > 0.0  # sector lies above the ground


def test_add_fermion_all_variants_cross_ordering():
    lists = []
    for case in ALL_CASES:
        pts = dispersion(_gs_spec(case, 4, 4.0, 1.0),
                         AddOneFermion(all_variants=True))
        assert len(pts) == 10  # 5 hole slots x 2 admissible J1
        lists.append(sorted(p.de for p in pts if p.status == "ok"))
    assert len(lists[0]) == 10
    assert lists[1] == pytest.approx(lists[0], rel=1e-8)
    assert lists[2] == pytest.approx(lists[0], rel=1e-8)


def test_add_fermion_family_minimum_frozen_n5():
    for case in ALL_CASES:
        pts = dispersion(_gs_spec(case, 5, 5.0, 1.0), AddOneFermion())
        finite = [p.de for p in pts if p.status == "ok"]
        assert len(finite) == len(pts) == 3
        assert min(finite) == pytest.approx(2.4698770056609978, rel=1e-9)


def test_two_fermion_dispersion():
    spec = _gs_spec("bff", 4, 4.0, 1.0)
    pts = dispersion(spec, TwoFermions())
    # J slots {-3,-1,1,3}/2 -> C(4,2) = 6 pairs
    assert len(pts) == 6
    assert all(p.status == "ok" for p in pts)
    assert all(p.de >= -1e-9 for p in pts)
    pts1 = dispersion(spec, TwoFermions(mp=1))
    assert all(p.status == "ok" for p in pts1)
    assert all(p.de >= -1e-9 for p in pts1)
    # opposite-spin pair couples differently from the polarized pair
    assert sorted(p.de for p in pts1) != pytest.approx(
        sorted(p.de for p in pts)[:len(pts1)], rel=1e-6)


def test_dispersion_solves_rows_as_stacks(monkeypatch):
    # one solve_many stack per row; a member whose direct run fails goes
    # down the coupling ladder exactly once, and when that fails too its
    # column in the next row starts from the default seed
    spec = _gs_spec("bff", 3, 3.0, 1.0)
    doomed = particle_hole_numbers(spec, 1, 3.0)  # row 0, column (3.0,)
    runs = []  # (coupling, configurations) of every Newton run
    stacks = []  # (configurations, seeds) of every solve_many call
    newton, solve_many = bae._newton, excitations.solve_many

    def failing(sub, qns, x0):
        runs.append((sub.c, list(qns)))
        return [NonConvergence("forced failure", 1.0) if qn == doomed
                else res for qn, res in zip(qns, newton(sub, qns, x0))]

    def recorded(sub, qns, inits):
        stacks.append((list(qns), list(inits)))
        return solve_many(sub, qns, inits)

    monkeypatch.setattr(bae, "_newton", failing)
    monkeypatch.setattr(excitations, "solve_many", recorded)
    pts = dispersion(spec, ParticleHole())
    assert len(pts) == 9 and len(stacks) == 3  # one stack per hole
    assert [p.status for p in pts] == ["ok", "failed"] + ["ok"] * 7
    assert np.isnan(pts[1].de)
    # the direct run, then the ladder's first stage, alone in its stack
    assert [c for c, qns in runs if doomed in qns] == [1.0, 100.0]
    assert [qns for c, qns in runs if c == 100.0] == [[doomed]]
    # row 0 starts from the ground-state roots; in row 1 the failed
    # column starts from the default seed, the others from row 0's roots
    seeds0, seeds1 = stacks[0][1], stacks[1][1]
    assert seeds0[0] is not None and all(s is seeds0[0] for s in seeds0)
    assert [s is None for s in seeds1] == [False, True, False]
    assert all(s is None or s.k.size == spec.n for s in seeds1)


def _chained_dispersion(spec, family):
    """Reference: the per-point warm-start chain that solved sweeps before
    rows were stacked. Every point starts from the previous point's
    converged roots, or from the default seed after a failure or a change
    of population; one solve per point."""
    qn0 = ground_state_numbers(spec)
    e0 = energy_momentum(spec, qn0, solve(spec, qn0)).E
    n = spec.n
    entries = []
    if isinstance(family, GroundState):
        entries.append(((), spec, qn0))
    elif isinstance(family, ParticleHole):
        for hole in range(1, n + 1):
            for two_p in range(n + 1, 3 * n, 2):
                qn = particle_hole_numbers(spec, hole, two_p / 2.0)
                entries.append(((float(hole), two_p / 2.0), spec, qn))
    elif isinstance(family, AddOneFermion):
        entries.extend(excitations._add_fermion_sweep(spec, family))
    else:
        if n < 2:
            raise InvalidConfig("two-fermions family needs N >= 2")
        sub = MixtureSpec("bff", n, 2, family.mp, spec.L, spec.c)
        slots = _parity_values(-(n - 1), n - 1, required_parities(sub)[1])
        for i, ta in enumerate(slots):
            for tb in slots[i + 1:]:
                qn = two_fermion_numbers(sub, ta / 2.0, tb / 2.0)
                entries.append(((ta / 2.0, tb / 2.0), sub, qn))
    points, prev = [], None
    for params, sub, qn in entries:
        init = None
        if prev is not None and prev.size == sub.n + sub.m + sub.mp:
            init = RootSet(prev[:sub.n], prev[sub.n:sub.n + sub.m],
                           prev[sub.n + sub.m:])
        try:
            roots = solve(sub, qn, init=init)
        except NonConvergence:
            zeros = np.zeros(sub.n + sub.m + sub.mp)
            p = energy_momentum(sub, qn, RootSet(zeros[:sub.n],
                                                 zeros[:sub.m],
                                                 zeros[:sub.mp])).P
            points.append((params, p, float("nan"), "failed"))
            prev = None
            continue
        obs = energy_momentum(sub, qn, roots)
        points.append((params, obs.P, obs.E - e0, "ok"))
        prev = np.concatenate([roots.k, roots.lam, roots.mu])
    return points


_FAMILIES = (GroundState(), ParticleHole(), AddOneFermion(),
             AddOneFermion(all_variants=True), TwoFermions(mp=0),
             TwoFermions(mp=1))


@pytest.mark.parametrize("case", ALL_CASES)
@pytest.mark.parametrize("c", [0.3, 1.0, 10.0])
def test_row_stacked_dispersion_matches_point_chain(case, c):
    # seeding a point from the row above instead of from its left
    # neighbour changes the path to the root, not the root: equal P and
    # status, dE within rel 1e-9
    for n, family in product(range(1, 9), _FAMILIES):
        spec = _gs_spec(case, n, float(n), c)
        try:
            want = _chained_dispersion(spec, family)
        except InvalidConfig:
            with pytest.raises(InvalidConfig):
                dispersion(spec, family)
            continue
        got = dispersion(spec, family)
        assert [(p.params, p.p, p.status) for p in got] == \
            [(params, p, status) for params, p, _, status in want]
        for pt, (_, _, de, status) in zip(got, want):
            if status == "ok":
                assert pt.de == pytest.approx(de, rel=1e-9, abs=1e-12)
            else:
                assert np.isnan(pt.de)


def test_dispersion_rejects_unknown_family():
    with pytest.raises(InvalidConfig):
        dispersion(_gs_spec("bff", 3, 3.0, 1.0), object())


def test_dispersion_requires_ground_population():
    with pytest.raises(InvalidConfig):
        dispersion(MixtureSpec("bff", 3, 1, 0, 3.0, 1.0), ParticleHole())


# ------------------------------------------------------------ histograms

def test_density_histogram_integral_identity():
    spec = _gs_spec("bff", 6, 6.0, 1.0)
    qn = ground_state_numbers(spec)
    roots = solve(spec, qn)
    mid, rho = density_histogram(spec, roots)
    gaps = np.diff(np.sort(roots.k))
    # each bin holds exactly one root transition: integral = (N-1)/L
    assert float((rho * gaps).sum()) == pytest.approx(
        (spec.n - 1) / spec.L, rel=1e-12)
    assert mid.size == spec.n - 1
    assert np.all(rho > 0)


def test_density_histogram_narrows_as_coupling_decreases():
    peaks, supports = [], []
    for c in (100.0, 10.0, 1.0, 0.1):
        spec = _gs_spec("bff", 12, 12.0, c)
        qn = ground_state_numbers(spec)
        roots = solve(spec, qn)
        _, rho = density_histogram(spec, roots)
        peaks.append(float(rho.max()))
        supports.append(float(roots.k.max() - roots.k.min()))
    assert peaks == sorted(peaks)                  # peak grows
    assert supports == sorted(supports, reverse=True)  # support shrinks
