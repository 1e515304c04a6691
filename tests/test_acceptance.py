"""Acceptance gate: the ten headline checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
interleaved; without ``-s`` pytest shows them for failing criteria only.
"""

from __future__ import annotations

import numpy as np
import pytest

from ctxlab import (
    HardyTriple,
    basis_mixture_povm,
    build_three_path,
    completeness_check,
    context_graph,
    context_selection_probability,
    dilation_DA,
    dilation_VH,
    evaluate_inequality,
    gram,
    hwp_transform,
    load_fixture,
    max_violation,
    maximizing_state,
    naimark_dilate,
    povm_DA,
    povm_from_dilation,
    probability,
    rescaled_probability,
    residual_decompose,
    verify_constraints,
)
from helpers import phase_aligned_max_err, random_pure_state, random_rank1_povm
from oracles import hermitian3_eigvals

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)

# regression constant frozen from the cubic oracle at first build:
# largest root of 12 x^3 + 12 x^2 + x - 1, i.e. (sqrt(33) - 3) / 12
FROZEN_MAX_GAP = 0.22871355387816908


def _report(num: int, ok: bool, description: str, measured: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {verdict} - {description} ({measured})")
    assert ok, f"criterion {num:02d}: {description} ({measured})"


@pytest.fixture(scope="module")
def scenario():
    return build_three_path()


@pytest.fixture(scope="module")
def merged(scenario):
    return povm_DA(scenario, merge_A=True)


@pytest.fixture(scope="module")
def hardy_fixture():
    return load_fixture("hardy")


@pytest.fixture(scope="module")
def triple(hardy_fixture):
    return HardyTriple.from_povm(hardy_fixture.resolve_povm(), *hardy_fixture.hardy)


@pytest.fixture(scope="module")
def paradox_state():
    return np.ones(3) / SQ3


def test_criterion_01(merged):
    expected = {
        "D1": np.array([2.0, -1.0, 1.0]) / 3.0,
        "D2": np.array([-1.0, 2.0, 1.0]) / 3.0,
        "D3": np.array([1.0, 1.0, 2.0]) / 3.0,
        "A": np.array([1.0, 1.0, -1.0]) / SQ3,
    }
    worst = max(
        phase_aligned_max_err(merged.vectors[merged.labels().index(label)], vec)
        for label, vec in expected.items()
    )
    residual = completeness_check(merged)
    _report(
        1,
        worst <= 1e-12 and residual <= 1e-12,
        "merged D/A POVM elements and completeness",
        f"element err {worst:.2e}, completeness {residual:.2e}",
    )


def test_criterion_02(merged):
    g = gram(merged.vectors[[merged.labels().index(f"D{i}") for i in (1, 2, 3)]])
    worst = max(
        abs(g[0, 1] - (-1.0 / 3.0)),
        abs(g[0, 2] - (1.0 / 3.0)),
        abs(g[1, 2] - (1.0 / 3.0)),
    )
    _report(2, worst <= 1e-12, "pairwise overlaps of the D triple", f"max err {worst:.2e}")


def test_criterion_03(merged, hardy_fixture, paradox_state):
    embedding = hardy_fixture.resolve_povm()
    p_d1 = probability(embedding, paradox_state, "D1")
    p_d2 = probability(embedding, paradox_state, "D2")
    p_f = probability(merged, paradox_state, "A")
    ok = p_d1 <= 1e-12 and p_d2 <= 1e-12 and abs(p_f - 1.0 / 9.0) <= 1e-12
    _report(
        3,
        ok,
        "paradox state: zero D outcomes, F probability 1/9",
        f"P(D1) {p_d1:.2e}, P(D2) {p_d2:.2e}, P(F) err {abs(p_f - 1.0 / 9.0):.2e}",
    )


def test_criterion_04(hardy_fixture, triple):
    p = hardy_fixture.resolve_povm()
    c1 = rescaled_probability(p, maximizing_state(p, "D1"), "F")
    c2 = rescaled_probability(p, maximizing_state(p, "D2"), "F")
    r1 = rescaled_probability(p, triple.directions[3], "F")  # basis1
    r2 = rescaled_probability(p, triple.directions[4], "F")  # basis2
    worst = max(
        abs(c1 - 2.0 / 3.0), abs(c2 - 2.0 / 3.0), abs(r1 - 1.0 / 3.0), abs(r2 - 1.0 / 3.0)
    )
    _report(
        4,
        worst <= 1e-12,
        "certification: 2/3 at D-maximising states, 1/3 at the basis states",
        f"max err {worst:.2e}",
    )


def test_criterion_05(scenario):
    d = dilation_DA(scenario)
    report = verify_constraints(d)
    residuals = residual_decompose(d)
    a_f = np.kron(scenario.a, scenario.f)
    worst_norm = max(
        abs(float(np.vdot(sigma, sigma).real) - 1.0 / 3.0)
        for sigma in (residuals.vectors[residuals.labels().index(f"D{i}")] for i in (1, 2, 3))
    )
    worst_overlap = max(
        abs(abs(complex(np.vdot(a_f, sigma / np.linalg.norm(sigma)))) - 1.0)
        for sigma in (residuals.vectors[residuals.labels().index(f"D{i}")] for i in (1, 2, 3))
    )
    ok = (
        report.max_orthogonality_residual <= 1e-9
        and report.max_normalisation_residual <= 1e-9
        and worst_norm <= 1e-9
        and worst_overlap <= 1e-9
    )
    _report(
        5,
        ok,
        "residual-component constraints of the D/A dilation",
        f"constraint {max(report.max_orthogonality_residual, report.max_normalisation_residual):.2e}, "
        f"norm err {worst_norm:.2e}, direction err {worst_overlap:.2e}",
    )


def test_criterion_06():
    rng = np.random.default_rng(2024)
    worst_element = 0.0
    worst_gram = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        count = int(rng.integers(dim, 13))
        p = random_rank1_povm(rng, dim, count)
        d = naimark_dilate(p)
        again = povm_from_dilation(d)
        for row, row2 in zip(p.vectors, again.vectors):
            worst_element = max(
                worst_element, float(np.abs(row - row2).max())
            )
        worst_gram = max(worst_gram, d.outcomes.orthonormality_residual())
    ok = worst_element <= 1e-9 and worst_gram <= 1e-9
    _report(
        6,
        ok,
        "dilate/re-derive round trip over 100 random rank-1 POVMs",
        f"element err {worst_element:.2e}, outcome gram err {worst_gram:.2e}",
    )


def test_criterion_07(merged):
    rng = np.random.default_rng(2025)
    worst_bound = -np.inf
    worst_pair = -np.inf
    for _ in range(1000):
        psi = random_pure_state(rng, 3)
        for label in merged.labels():
            worst_bound = max(
                worst_bound,
                probability(merged, psi, label) - context_selection_probability(merged, label),
            )
        for i in (1, 2, 3):
            total = rescaled_probability(merged, psi, "A") + rescaled_probability(
                merged, psi, f"D{i}"
            )
            worst_pair = max(worst_pair, total - 1.0)
    ok = worst_bound <= 1e-9 and worst_pair <= 1e-9
    _report(
        7,
        ok,
        "probability and rescaled-sum bounds over 1000 random states",
        f"bound excess {worst_bound:.2e}, pair excess {worst_pair:.2e}",
    )


def test_criterion_08(merged):
    g = context_graph(merged)
    star = (
        set(g.nodes) == {"D1", "D2", "D3", "A"}
        and len(g.edges) == 3
        and all(g.has_edge("A", f"D{i}") for i in (1, 2, 3))
        and g.skipped == ()
    )
    _report(
        8,
        star,
        "context graph of the merged POVM is the plate-outcome star",
        f"{len(g.edges)} edges over {len(g.nodes)} nodes",
    )


def test_criterion_09(scenario):
    reference = povm_from_dilation(dilation_VH(scenario))
    mix = basis_mixture_povm(
        [scenario.paths, [hwp_transform(scenario, p) for p in scenario.paths]],
        [0.5, 0.5],
        labels=[["V1", "V2", "V3"], ["H1", "H2", "H3"]],
    )
    worst = max(
        float(np.abs(a - b).max())
        for a, b in zip(mix.vectors, reference.vectors)
    )
    worst_csp = max(
        abs(context_selection_probability(mix, label) - 0.5) for label in mix.labels()
    )
    ok = mix.labels() == reference.labels() and worst <= 1e-12 and worst_csp <= 1e-12
    _report(
        9,
        ok,
        "two-basis mixture reproduces the V/H POVM with half weights",
        f"element err {worst:.2e}, weight err {worst_csp:.2e}",
    )


def test_criterion_10(hardy_fixture, triple, paradox_state):
    value, best = max_violation(triple)
    f_hat, d1_hat, d2_hat = triple.directions[:3]
    matrix = (
        np.outer(f_hat, f_hat.conj()) - np.outer(d1_hat, d1_hat.conj())
        - np.outer(d2_hat, d2_hat.conj())
    )
    oracle_top = hermitian3_eigvals(matrix)[-1]
    report = evaluate_inequality(triple, paradox_state)
    witnessed = report.lhs - report.rhs
    ok = (
        abs(value - oracle_top) <= 1e-9
        and value >= 1.0 / 9.0
        and witnessed >= 1.0 / 9.0 - 1e-12
        and abs(value - FROZEN_MAX_GAP) <= 1e-12
    )
    _report(
        10,
        ok,
        "largest inequality gap matches the cubic oracle and the frozen constant",
        f"oracle err {abs(value - oracle_top):.2e}, frozen err {abs(value - FROZEN_MAX_GAP):.2e}",
    )
