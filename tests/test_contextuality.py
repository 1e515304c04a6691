"""Hardy-type triples, rescaled-probability inequalities, and their optimum."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlab import (
    HardyTriple,
    Povm,
    SpaceMismatchError,
    UnknownLabelError,
    ValidationError,
    completeness_check,
    context_selection_probability,
    evaluate_inequality,
    hardy_embedding_povm,
    hardy_state,
    max_violation,
    probability,
    rescaled_probability,
)
from helpers import element_row, norm_sq, random_pure_state, random_unitary, unit
from oracles import hardy_numbers, hermitian3_eigvals

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)

# top root of the characteristic polynomial of P_F - P_D1 - P_D2, frozen at
# first build from the cubic oracle: (sqrt(33) - 3) / 12
MAX_GAP = 0.22871355387816908


def _directions():
    f = np.array([1.0, 1.0, -1.0]) / SQ3
    d1 = np.array([0.0, 1.0, -1.0]) / SQ2
    d2 = np.array([1.0, 0.0, -1.0]) / SQ2
    return f, d1, d2


@pytest.fixture(scope="module")
def embedding():
    f, d1, d2 = _directions()
    return hardy_embedding_povm(f, d1, d2)


@pytest.fixture(scope="module")
def triple(embedding):
    return HardyTriple(embedding, "F", "D1", "D2")


def test_triple_derives_the_path_basis(triple):
    np.testing.assert_allclose(triple.directions[3], [1.0, 0.0, 0.0], atol=1e-12)  # basis1
    np.testing.assert_allclose(triple.directions[4], [0.0, 1.0, 0.0], atol=1e-12)  # basis2
    for derived, given in zip(triple.directions[:3], _directions()):
        assert np.abs(derived - given).max() <= 1e-12


def test_decomposition_coefficients(triple):
    # F = alpha_k basis_k + beta_k D_k with alpha_k = 1/sqrt3 and beta_k = sqrt(2/3)
    f, d1, d2, basis1, basis2 = triple.directions
    for basis, d in ((basis1, d1), (basis2, d2)):
        alpha, beta = complex(np.vdot(basis, f)), complex(np.vdot(d, f))
        assert abs(alpha - 1.0 / SQ3) <= 1e-12
        assert abs(beta - np.sqrt(2.0 / 3.0)) <= 1e-12
        residual = f - alpha * basis - beta * d
        assert np.abs(residual).max() <= 1e-12


def test_triple_rejects_degenerate_configurations():
    f, d1, _ = _directions()
    # d2 chosen so that the two completing vectors fail to be orthogonal
    skew = np.eye(3)[2]
    p = hardy_embedding_povm(f, d1, skew)
    with pytest.raises(ValidationError, match=r"\(\|<b1\|b2>\| = 7.071e-01\)$") as err:
        HardyTriple(p, "F", "D1", "D2")
    assert err.value.invariant == "hardy-basis-orthogonality"
    # a partner parallel to F leaves nothing to complete
    q = hardy_embedding_povm(f, f, d1)
    with pytest.raises(ValidationError) as err:
        HardyTriple(q, "F", "D1", "D2")
    assert err.value.invariant == "hardy-decomposition"


def test_triple_rejects_operator_and_zero_elements():
    f, d1, d2 = _directions()
    p = hardy_embedding_povm(f, d1, d2)
    blob = np.eye(3) - sum(np.outer(k, k.conj()) / 3.0 for k in (f, d1, d2))
    rows = np.concatenate([p.vectors[:3], np.zeros((1, 3), dtype=complex)])
    q = Povm(3, p.labels()[:3] + ("rest",), rows, {3: blob})
    with pytest.raises(ValidationError) as err:
        HardyTriple(q, "rest", "D1", "D2")
    assert err.value.invariant == "rank-one"


@pytest.mark.parametrize("defect", ["operator", "zero", "faint", "missing"])
@pytest.mark.parametrize("role", [0, 1, 2], ids=["F", "D1", "D2"])
def test_a_triple_checks_each_of_its_outcomes(embedding, role, defect):
    labels, rows, operators = list(embedding.labels()), np.array(embedding.vectors), {}
    label = labels[role]
    if defect == "operator":  # a rank-2 element given as a matrix
        kept = [k for k in range(3) if k != role]
        operators[role] = sum(np.outer(rows[k], rows[k].conj()) for k in kept)
        rows[role] = 0.0
        expected = (ValidationError, f"element {label!r} is not rank one", "rank-one")
    elif defect in ("zero", "faint"):  # weight 0, or 1e-10 / 3 below the default tol
        rows[role] *= 0.0 if defect == "zero" else 1e-5
        expected = (ValidationError, f"element {label!r} has zero weight", "nonzero-element")
    else:
        label = "X"
        expected = (UnknownLabelError, "no outcome labelled 'X'", None)
    names = [labels[k] if k != role else label for k in range(3)]
    kind, message, invariant = expected
    with pytest.raises(kind, match=re.escape(message)) as err:
        HardyTriple(Povm(3, labels, rows, operators), *names)
    assert getattr(err.value, "invariant", None) == invariant


def test_hardy_state_is_the_uniform_superposition():
    _, d1, d2 = _directions()
    psi = hardy_state(d1, d2)
    np.testing.assert_allclose(psi, np.ones(3) / SQ3, atol=1e-12)


def test_hardy_state_kills_both_partners():
    rng = np.random.default_rng(47)
    for _ in range(50):
        d1 = random_pure_state(rng, 3)
        d2 = random_pure_state(rng, 3)
        psi = hardy_state(d1, d2)
        assert abs(np.vdot(d1, psi)) <= 1e-12
        assert abs(np.vdot(d2, psi)) <= 1e-12
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_hardy_state_input_checks():
    with pytest.raises(ValidationError):
        hardy_state(np.eye(2)[0], np.eye(2)[1])
    _, d1, _ = _directions()
    with pytest.raises(ValidationError) as err:
        hardy_state(d1, -d1)
    assert err.value.invariant == "independence"


def test_inequality_at_the_paradox_state(embedding, triple):
    _, d1, d2 = _directions()
    report = evaluate_inequality(triple, hardy_state(d1, d2))
    assert abs(report.lhs - 1.0 / 9.0) <= 1e-12
    assert report.rhs <= 1e-12
    assert report.violated
    cert = report.certification
    assert abs(cert.c1 - 2.0 / 3.0) <= 1e-12
    assert abs(cert.c2 - 2.0 / 3.0) <= 1e-12
    assert abs(cert.r1 - 1.0 / 3.0) <= 1e-12
    assert abs(cert.r2 - 1.0 / 3.0) <= 1e-12


def test_inequality_not_violated_at_the_mixed_state(embedding, triple):
    mixed = np.eye(3) / 3.0
    report = evaluate_inequality(triple, mixed)
    assert abs(report.lhs - 1.0 / 3.0) <= 1e-12
    assert abs(report.rhs - 2.0 / 3.0) <= 1e-12
    assert not report.violated


def test_inequality_rejects_a_state_of_another_dimension(triple):
    with pytest.raises(SpaceMismatchError, match="state dim 4 != system dim 3"):
        evaluate_inequality(triple, np.eye(4)[0])


def test_directions_are_derived_and_cannot_be_given(triple):
    # the 2 * f_hat triple that once gave a max violation of 2.74 on this POVM
    doubled = np.array([2.0 * triple.directions[0], *triple.directions[1:]])
    with pytest.raises(TypeError):
        HardyTriple(triple.povm, "F", "D1", "D2", doubled)
    with pytest.raises(TypeError):
        HardyTriple(triple.povm, "F", "D1", "D2", directions=doubled)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(triple, directions=doubled)
    with pytest.raises(TypeError):
        HardyTriple(triple.povm, "F", "D1", "D2", 1e-3)  # tol is keyword-only


def test_derived_directions_are_read_only_and_compared_by_value(embedding, triple):
    again = HardyTriple(embedding, "F", "D1", "D2")
    assert again == triple and again.directions.dtype == complex
    with pytest.raises(ValueError):
        again.directions[0, 0] = 2.0
    rows = np.array(embedding.vectors)
    rows[0, 0] = np.nextafter(rows[0, 0].real, np.inf)  # F's row moved by one ulp
    moved = HardyTriple(Povm(3, embedding.labels(), rows), "F", "D1", "D2")
    assert moved != triple and not np.array_equal(moved.directions, triple.directions)
    assert HardyTriple(embedding, "F", "D2", "D1") != triple


def test_a_triple_keeps_its_tol_outside_equality(embedding, triple):
    loose = HardyTriple(embedding, "F", "D1", "D2", tol=1e-3)
    assert (loose.tol, triple.tol) == (1e-3, 1e-9)
    assert loose == triple and "tol" not in repr(loose)


def test_max_violation_matches_the_frozen_constant(triple):
    value, state = max_violation(triple)
    assert abs(value - MAX_GAP) <= 1e-12
    assert value >= 1.0 / 9.0
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


def test_max_violation_matches_the_cubic_oracle(triple):
    f_hat, d1_hat, d2_hat = triple.directions[:3]
    matrix = (
        np.outer(f_hat, f_hat.conj())
        - np.outer(d1_hat, d1_hat.conj())
        - np.outer(d2_hat, d2_hat.conj())
    )
    roots = hermitian3_eigvals(matrix)
    value, _ = max_violation(triple)
    assert abs(value - roots[-1]) <= 1e-9
    # closed form of the full spectrum: (2x + 1)(6x^2 + 3x - 1) = 0
    expected = np.array([-(3.0 + np.sqrt(33.0)) / 12.0, -0.5, (np.sqrt(33.0) - 3.0) / 12.0])
    np.testing.assert_allclose(roots, expected, atol=1e-12)


def test_max_violation_state_attains_the_gap(embedding, triple):
    value, state = max_violation(triple)
    report = evaluate_inequality(triple, state)
    assert abs((report.lhs - report.rhs) - value) <= 1e-9
    assert report.violated


def test_no_state_beats_the_optimum(embedding, triple):
    rng = np.random.default_rng(53)
    value, _ = max_violation(triple)
    for _ in range(300):
        report = evaluate_inequality(triple, random_pure_state(rng, 3))
        assert report.lhs - report.rhs <= value + 1e-9
        assert -1e-12 <= report.lhs <= 1.0 + 1e-12


def test_max_violation_is_rotation_invariant():
    rng = np.random.default_rng(59)
    for _ in range(20):
        u = random_unitary(rng, 3)
        p = hardy_embedding_povm(*(u @ k for k in _directions()))
        value, _ = max_violation(HardyTriple(p, "F", "D1", "D2"))
        assert abs(value - MAX_GAP) <= 1e-9


@pytest.mark.parametrize("scale", [1e-4, 1.0 / 3.0, 1.0, 2.0, 1e4])
def test_directions_are_unit_whatever_the_row_scale(triple, scale):
    # a POVM row of 2 * f_hat once gave a max violation of 2.74 when passed as a direction
    rows = scale * np.stack(_directions())
    scaled = HardyTriple(Povm(3, ["F", "D1", "D2"], rows), "F", "D1", "D2")
    assert np.abs(np.linalg.norm(scaled.directions, axis=1) - 1.0).max() <= 1e-12
    assert np.abs(scaled.directions - triple.directions).max() <= 1e-12
    assert abs(max_violation(scaled)[0] - MAX_GAP) <= 1e-12


def test_max_violation_ignores_element_scales():
    weights = np.array([0.2, 0.3, 0.1])
    rows = np.sqrt(weights)[:, None] * np.stack(_directions())
    t = HardyTriple(Povm(3, ["F", "D1", "D2"], rows), "F", "D1", "D2")
    value, _ = max_violation(t)
    assert abs(value - MAX_GAP) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_partners_that_span_f_admit_no_violation(dim):
    # d1 and d2 orthonormal with f in their span: P_F <= P_D1 + P_D2, so the optimum is 0
    e = np.eye(dim)
    p = hardy_embedding_povm((e[0] + e[1]) / SQ2, e[0], e[1])
    t = HardyTriple(p, "F", "D1", "D2")
    np.testing.assert_allclose(t.directions[3:], [e[1], e[0]], atol=1e-12)  # basis1, basis2
    value, state = max_violation(t)
    assert abs(value) <= 1e-12
    report = evaluate_inequality(t, state)
    assert abs(report.lhs - report.rhs) <= 1e-12 and not report.violated


def test_embedding_povm_structure(embedding):
    assert embedding.labels() == ("F", "D1", "D2", "R1", "R2", "R3")
    assert completeness_check(embedding) <= 1e-12
    f, d1, d2 = _directions()
    for label, direction in (("F", f), ("D1", d1), ("D2", d2)):
        el = element_row(embedding, label)
        assert abs(context_selection_probability(embedding, label) - 1.0 / 3.0) <= 1e-12
        overlap = abs(np.vdot(unit(el), direction))
        assert abs(overlap - 1.0) <= 1e-12
    # remainder weights are sorted largest first
    weights = [norm_sq(element_row(embedding, f"R{i}")) for i in (1, 2, 3)]
    assert weights == sorted(weights, reverse=True)


def test_embedding_povm_of_three_parallel_directions_is_complete():
    f, _, _ = _directions()
    p = hardy_embedding_povm(f, -f, 1j * f)
    assert p.labels() == ("F", "D1", "D2", "R1", "R2")  # the remainder's null direction dropped
    assert completeness_check(p) <= 1e-12


@pytest.mark.parametrize(
    "bad, kind, message, invariant",
    [
        (np.zeros(3), ValidationError, "cannot normalise a zero vector", "normalisable"),
        ([np.nan, 0.0, 0.0], ValidationError, "amplitudes must be finite", "finite-amplitudes"),
        (np.eye(4)[0], SpaceMismatchError, "rows that are not one complex stack", None),
        (np.eye(3), SpaceMismatchError, "rows that are not one complex stack", None),
    ],
    ids=["zero", "nan", "dim4", "matrix"],
)
def test_embedding_povm_names_a_bad_direction(bad, kind, message, invariant):
    f, d1, _ = _directions()
    with pytest.raises(kind, match=f"^{message}") as err:
        hardy_embedding_povm(f, d1, bad)
    assert getattr(err.value, "invariant", None) == invariant


def test_rescaled_reading_of_the_paradox(embedding):
    # the three probabilities behind the headline numbers, unrescaled
    _, d1, d2 = _directions()
    psi = hardy_state(d1, d2)
    assert probability(embedding, psi, "D1") <= 1e-12
    assert probability(embedding, psi, "D2") <= 1e-12
    assert abs(probability(embedding, psi, "F") - 1.0 / 27.0) <= 1e-12


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1))
def test_hardy_layer_matches_the_numpy_oracle_in_every_dimension(dim, seed):
    # an admissible triple: f decomposes over (b_k, d_k) with b1, b2 orthonormal
    rng = np.random.default_rng(seed)
    f = unit(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    u = random_unitary(rng, dim)
    b1, b2 = u[:, 0], u[:, 1]
    d1, d2 = (unit(f - np.vdot(b, f) * b) for b in (b1, b2))
    p = hardy_embedding_povm(f, d1, d2)
    triple = HardyTriple(p, "F", "D1", "D2")
    value, best = max_violation(triple)

    weights = rng.dirichlet(np.ones(dim))
    v = random_unitary(rng, dim)
    pure = random_pure_state(rng, dim)
    mixed = (v * weights) @ v.conj().T
    for state, rho in ((pure, np.outer(pure, pure.conj())), (mixed, mixed)):
        want = hardy_numbers(f, d1, d2, b1, b2, rho)
        assert abs(value - want["max_violation"]) <= 1e-12
        report = evaluate_inequality(triple, state)
        cert = report.certification
        got = (report.lhs, report.rhs, cert.c1, cert.c2, cert.r1, cert.r2)
        for name, number in zip(("lhs", "rhs", "c1", "c2", "r1", "r2"), got):
            assert abs(number - want[name]) <= 1e-12, name
        # rescaled probabilities lie in [0, 1] up to round-off, and no state beats the optimum
        for label in ("F", "D1", "D2"):
            assert -1e-12 <= rescaled_probability(p, state, label) <= 1.0 + 1e-12
        assert report.lhs - report.rhs <= value + 1e-9
    report = evaluate_inequality(triple, best)
    assert abs((report.lhs - report.rhs) - value) <= 1e-9

    # a bare three-row POVM whose rows carry any scale and global phase gives the same
    # canonical-phase unit directions (largest amplitude real positive) and optimum
    units = np.stack([f, d1, d2])
    scales = rng.uniform(0.1, 2.0, size=3) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=3))
    bare = HardyTriple(Povm(dim, ["F", "D1", "D2"], scales[:, None] * units), "F", "D1", "D2")
    pivots = units[np.arange(3), np.abs(units).argmax(axis=1)]
    canonical = units * (pivots.conj() / np.abs(pivots))[:, None]
    assert np.abs(bare.directions[:3] - canonical).max() <= 1e-12
    projectors = units[:, :, None] * units.conj()[:, None, :]
    top = np.linalg.eigvalsh(projectors[0] - projectors[1] - projectors[2])[-1]
    assert abs(max_violation(bare)[0] - top) <= 1e-12
