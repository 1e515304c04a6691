"""The three-path layout: plate action, joint outcome sets, derived POVMs."""

from __future__ import annotations

import numpy as np
import pytest

from ctxlab import (
    SpaceMismatchError,
    ThreePathScenario,
    ValidationError,
    build_three_path,
    completeness_check,
    context_graph,
    dilation_DA,
    dilation_VH,
    gram,
    hwp_transform,
    joint_outcomes_DA,
    joint_outcomes_VH,
    povm_DA,
    povm_from_dilation,
    probability,
    residual_decompose,
    verify_constraints,
)
from helpers import (
    element_row,
    norm_sq,
    outcome_row,
    phase_aligned_max_err,
    random_pure_state,
    unit,
)

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def s():
    return build_three_path()


def test_layout_constants(s):
    np.testing.assert_allclose(s.s1, [0.0, 1.0 / SQ2, 1.0 / SQ2])
    np.testing.assert_allclose(s.s2, [1.0 / SQ2, 0.0, 1.0 / SQ2])
    np.testing.assert_allclose(s.f, np.array([1.0, 1.0, -1.0]) / SQ3)
    np.testing.assert_allclose(s.d, np.array([1.0, 1.0]) / SQ2)
    np.testing.assert_allclose(s.a, np.array([1.0, -1.0]) / SQ2)
    # the plate direction completes both beam-splitter superpositions
    assert abs(np.vdot(s.f, s.s1)) <= 1e-12
    assert abs(np.vdot(s.f, s.s2)) <= 1e-12
    assert abs(np.vdot(s.s1, s.s2) - 0.5) <= 1e-12
    assert abs(np.vdot(s.d, s.a)) <= 1e-12


def test_layout_states_are_read_only_checked_copies(s):
    for name in ("paths", "s1", "s2", "f", "h", "v", "d", "a"):
        state = getattr(s, name)
        assert state.dtype == complex
        with pytest.raises(ValueError):
            state[0] = 0.0
    paths = np.eye(3)
    layout = ThreePathScenario(paths, s.s1, s.s2, s.f, s.h, s.v, s.d, s.a)
    paths[0, 0] = 2.0
    assert np.array_equal(layout.paths, np.eye(3))
    with pytest.raises(SpaceMismatchError, match=r"^a ket of shape \(3,\) for h$"):
        ThreePathScenario(paths, s.s1, s.s2, s.f, s.f, s.v, s.d, s.a)


def test_unknown_plate_position_is_rejected():
    with pytest.raises(ValidationError) as err:
        build_three_path("X")
    assert err.value.invariant == "hwp-path"


def test_plate_transform_is_a_reflection(s):
    rng = np.random.default_rng(59)
    for _ in range(20):
        psi = random_pure_state(rng, 3)
        once = hwp_transform(s, psi)
        assert abs(np.linalg.norm(once) - 1.0) <= 1e-12
        twice = hwp_transform(s, once)
        assert np.abs(twice - psi).max() <= 1e-12
    flipped = hwp_transform(s, s.f)
    assert np.abs(flipped + s.f).max() <= 1e-12
    kept = hwp_transform(s, s.s1)
    assert np.abs(kept - s.s1).max() <= 1e-12
    first = hwp_transform(s, s.paths[0])
    np.testing.assert_allclose(first, np.array([1.0, -2.0, 2.0]) / 3.0, atol=1e-12)
    with pytest.raises(SpaceMismatchError):
        hwp_transform(s, s.d)


@pytest.mark.parametrize("hwp_path", ("1", "2", "3", "S1", "S2", "F"))
def test_joint_outcome_sets_are_complete_bases(hwp_path):
    s = build_three_path(hwp_path)
    vh, da = joint_outcomes_VH(s), joint_outcomes_DA(s)
    for outcomes in (vh, da):
        assert len(outcomes) == outcomes.vectors.shape[1] == 6
        assert outcomes.orthonormality_residual() <= 1e-12
    assert vh.labels() == ("V1", "V2", "V3", "H1", "H2", "H3")
    assert da.labels() == ("D1", "D2", "D3", "A1", "A2", "A3")
    # V heralds the paths, H their reflections (I - 2|w><w|)|i> about the plate's path w
    plate = {"1": s.paths[0], "2": s.paths[1], "3": s.paths[2], "S1": s.s1, "S2": s.s2, "F": s.f}
    w = plate[hwp_path]
    reflected = np.eye(3) - 2.0 * np.outer(w, w.conj())
    v_rows = np.array([np.kron(s.v, u) for u in np.eye(3)])
    h_rows = np.array([np.kron(s.h, u) for u in reflected.T])
    assert np.abs(vh.vectors - np.concatenate([v_rows, h_rows])).max() <= 1e-12
    expected_da = np.concatenate([h_rows + v_rows, h_rows - v_rows]) / SQ2
    assert np.abs(da.vectors - expected_da).max() <= 1e-12
    if hwp_path == "F":
        h3 = np.kron(s.h, np.array([2.0, 2.0, 1.0]) / 3.0)
        assert np.abs(outcome_row(vh, "H3") - h3).max() <= 1e-12


def test_readout_rotation_factorises_over_the_paths(s):
    # <m_DA(p, i)|m_VH(q, j)> = <p_env|q_env> delta_ij
    da = joint_outcomes_DA(s)
    vh = joint_outcomes_VH(s)
    overlaps = np.array(
        [
            [np.vdot(outcome_row(da, a), outcome_row(vh, b)) for b in vh.labels()]
            for a in da.labels()
        ]
    )
    b = np.array(
        [
            [np.vdot(s.d, s.v), np.vdot(s.d, s.h)],
            [np.vdot(s.a, s.v), np.vdot(s.a, s.h)],
        ]
    )
    np.testing.assert_allclose(overlaps, np.kron(b, np.eye(3)), atol=1e-12)


def test_merged_DA_povm_reproduces_published_elements(s):
    p = povm_DA(s, merge_A=True)
    assert p.labels() == ("D1", "D2", "D3", "A")
    expected = {
        "D1": np.array([2.0, -1.0, 1.0]) / 3.0,
        "D2": np.array([-1.0, 2.0, 1.0]) / 3.0,
        "D3": np.array([1.0, 1.0, 2.0]) / 3.0,
        "A": np.array([1.0, 1.0, -1.0]) / SQ3,
    }
    for label, vec in expected.items():
        assert phase_aligned_max_err(element_row(p, label), vec) <= 1e-12
    assert completeness_check(p) <= 1e-12


def test_published_gram_values(s):
    p = povm_DA(s, merge_A=True)
    vectors = np.array([element_row(p, f"D{i}") for i in (1, 2, 3)])
    g = gram(vectors)
    assert abs(g[0, 1] - (-1.0 / 3.0)) <= 1e-12
    assert abs(g[0, 2] - (1.0 / 3.0)) <= 1e-12
    assert abs(g[1, 2] - (1.0 / 3.0)) <= 1e-12
    for i in range(3):
        assert abs(g[i, i] - 2.0 / 3.0) <= 1e-12


def test_rejected_context_components(s):
    # each D residual is the plate direction tagged with the orthogonal
    # polarisation; each A residual carries that outcome's path context
    residuals = residual_decompose(dilation_DA(s))
    p = povm_DA(s, merge_A=False)
    a_f = np.kron(s.a, s.f)
    for i in (1, 2, 3):
        sigma_d = outcome_row(residuals, f"D{i}")
        assert abs(norm_sq(sigma_d) - 1.0 / 3.0) <= 1e-12
        assert abs(abs(np.vdot(a_f, unit(sigma_d))) - 1.0) <= 1e-12
        sigma_a = outcome_row(residuals, f"A{i}")
        assert abs(norm_sq(sigma_a) - 2.0 / 3.0) <= 1e-12
        lam_d = element_row(povm_from_dilation(dilation_DA(s)), f"D{i}")
        target = np.kron(s.a, unit(lam_d))
        assert abs(abs(np.vdot(target, unit(sigma_a))) - 1.0) <= 1e-12
    assert norm_sq(element_row(p, "A1")) <= 1.0 / 3.0 + 1e-12


def test_constraint_reports_for_both_readouts(s):
    for d in (dilation_VH(s), dilation_DA(s)):
        report = verify_constraints(d)
        assert report.ok()


def test_paradox_probability_through_the_A_port(s):
    psi = np.ones(3) / SQ3
    p = povm_DA(s, merge_A=True)
    assert abs(probability(p, psi, "A") - 1.0 / 9.0) <= 1e-12


def test_plate_in_a_detected_path_degenerates_the_povm():
    s = build_three_path(hwp_path="1")
    p = povm_DA(s, merge_A=True)
    assert completeness_check(p) <= 1e-12
    assert norm_sq(element_row(p, "D1")) <= 1e-12
    assert abs(norm_sq(element_row(p, "A")) - 1.0) <= 1e-12
    assert phase_aligned_max_err(
        element_row(p, "A"), np.array([1.0, 0.0, 0.0])
    ) <= 1e-12
    g = context_graph(p)
    assert g.skipped == ("D1",)
    assert set(g.nodes) == {"D2", "D3", "A"}


def test_plate_in_a_detected_path_makes_VH_readouts_proportional():
    s = build_three_path(hwp_path="1")
    p = povm_from_dilation(dilation_VH(s))
    g = context_graph(p)
    # every pair is orthogonal or proportional: the graph is complete
    assert len(g.edges) == 15
    proportional = [(a, b) for a, b, w in g.edges if w > 0.5]
    assert sorted(proportional) == [("V1", "H1"), ("V2", "H2"), ("V3", "H3")]


def test_alternate_plate_positions_keep_completeness():
    for path in ("2", "3", "S1", "S2"):
        s = build_three_path(hwp_path=path)
        assert completeness_check(povm_from_dilation(dilation_VH(s))) <= 1e-12
        assert completeness_check(povm_DA(s, merge_A=False)) <= 1e-12
        assert verify_constraints(dilation_DA(s)).ok()


def test_povm_da_checks_the_dilation_at_its_own_tol(s):
    with pytest.raises(ValidationError) as err:
        povm_DA(s, tol=1e-17)
    assert err.value.invariant == "outcome-orthonormality"
    for build in (dilation_VH, dilation_DA):
        with pytest.raises(ValidationError):
            build(s, tol=1e-17)
