"""Dilations, derived POVMs, residual components, and the inverse construction."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlab import (
    Dilation,
    Povm,
    SpaceMismatchError,
    ValidationError,
    build_three_path,
    completeness_check,
    context_graph,
    context_selection_probability,
    dilation_DA,
    dilation_VH,
    fix_phase,
    gram,
    load_fixture,
    naimark_dilate,
    orthonormality_residual,
    povm_from_dilation,
    residual_decompose,
    verify_constraints,
)
from helpers import (
    element_row,
    norm_sq,
    outcome_row,
    phase_aligned_max_err,
    random_rank1_povm,
    random_unitary,
    switched,
    unit,
    with_phi_init,
)

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def _random_dilation(rng, env_dim, sys_dim):
    basis = random_unitary(rng, env_dim * sys_dim)
    labels = [f"m{k}" for k in range(env_dim * sys_dim)]
    phi = rng.normal(size=env_dim) + 1j * rng.normal(size=env_dim)
    phi = phi / np.linalg.norm(phi)
    return Dilation(env_dim, sys_dim, labels, basis.T.copy(), phi)


def test_outcome_set_validates_orthonormality():
    v = np.eye(2)[1]
    p1 = np.eye(3)[0]
    twice = np.array([np.kron(v, p1)] * 2)
    with pytest.raises(ValidationError) as err:
        Dilation(2, 3, ["a", "b"], twice, v)
    assert err.value.invariant == "unique-labels" or err.value.invariant == "outcome-orthonormality"
    skew = np.kron(v, [0.9, 0.1, 0.0])
    with pytest.raises(ValidationError):
        Dilation(2, 3, ["a", "b"], np.array([np.kron(v, p1), skew]), v)


def test_a_dilation_checks_its_outcomes_before_phi_init():
    twice = np.array([np.kron(np.eye(2)[1], np.eye(3)[0])] * 2)
    with pytest.raises(ValidationError) as err:
        Dilation(2, 3, ["a", "b"], twice, [1.0, 1.0, 1.0])
    assert err.value.invariant == "outcome-orthonormality"


@pytest.mark.parametrize("name", ["env_dim", "sys_dim", "phi_init", "tol", "vectors", "_index"])
def test_outcome_set_fields_can_be_neither_assigned_nor_deleted(name):
    outcomes = Dilation(2, 2, ["m0", "m1", "m2"], np.eye(3, 4, dtype=complex), np.eye(2)[0])
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(outcomes, name, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(outcomes, name)
    assert outcomes.labels() == ("m0", "m1", "m2") and not outcomes.vectors.flags.writeable


def test_outcome_set_count_cannot_exceed_dimension():
    rows = np.eye(2)[[0, 1, 0]]  # |0> (x) |a> for a = 0, 1, 0 on a dim-1 environment
    with pytest.raises(ValidationError):
        Dilation(1, 2, ["a", "b", "c"], rows, [1.0])


def test_dilation_requires_normalised_environment_state():
    s = build_three_path()
    outcomes = dilation_VH(s)
    with pytest.raises(ValidationError):
        with_phi_init(outcomes, [1.0, 1.0])
    with pytest.raises(SpaceMismatchError):
        with_phi_init(outcomes, np.eye(3)[0])


def test_dilation_requires_phi_init_on_the_environment_factor():
    outcomes = dilation_VH(build_three_path())
    with pytest.raises(SpaceMismatchError, match="^phi_init dim 3 != environment factor 2$"):
        with_phi_init(outcomes, np.eye(3)[0])
    with pytest.raises(SpaceMismatchError, match=r"^a ket of shape \(1, 2\) for phi_init$"):
        with_phi_init(outcomes, np.eye(1, 2))
    with pytest.raises(ValidationError) as err:
        with_phi_init(outcomes, [np.nan, 1.0])
    assert err.value.invariant == "finite-amplitudes"


def test_phi_init_is_a_read_only_copy_compared_by_value():
    s = build_three_path()
    outcomes = dilation_VH(s)
    phi = np.array(s.d)
    d = with_phi_init(outcomes, phi)
    phi[0] = 1.0
    assert d == dilation_VH(s) and d.phi_init.dtype == complex
    with pytest.raises(ValueError):
        d.phi_init[0] = 1.0
    assert with_phi_init(outcomes, s.a) != d


def test_product_outcomes_give_projective_elements():
    # outcomes |x> (x) |a> with phi_init = |x> contract to the bare basis
    x = np.eye(2)[0]
    rows = np.array([np.kron(x, np.eye(3)[i]) for i in range(3)])
    outcomes = Dilation(2, 3, ["a0", "a1", "a2"], rows, x)
    p = povm_from_dilation(outcomes)
    for i, label in enumerate(p.labels()):
        el = element_row(p, label)
        assert abs(norm_sq(el) - 1.0) <= 1e-12
        assert phase_aligned_max_err(el, np.eye(3)[i]) <= 1e-12


def test_three_path_VH_povm_reproduces_published_elements():
    s = build_three_path()
    p = povm_from_dilation(dilation_VH(s))
    expected = {
        "V1": np.array([1.0, 0.0, 0.0]) / SQ2,
        "V2": np.array([0.0, 1.0, 0.0]) / SQ2,
        "V3": np.array([0.0, 0.0, 1.0]) / SQ2,
        "H1": np.array([1.0, -2.0, 2.0]) / (3.0 * SQ2),
        "H2": np.array([-2.0, 1.0, 2.0]) / (3.0 * SQ2),
        "H3": np.array([2.0, 2.0, 1.0]) / (3.0 * SQ2),
    }
    for label, vec in expected.items():
        el = element_row(p, label)
        assert abs(norm_sq(el) - 0.5) <= 1e-12
        assert phase_aligned_max_err(el, vec) <= 1e-12
    assert completeness_check(p) <= 1e-12


def test_outcomes_orthogonal_to_initial_condition_become_zero_elements():
    s = build_three_path()
    p = povm_from_dilation(dilation_VH(s, phi_init=s.h))
    for i in (1, 2, 3):
        assert norm_sq(element_row(p, f"V{i}")) <= 1e-15
        assert abs(norm_sq(element_row(p, f"H{i}")) - 1.0) <= 1e-12


def test_residuals_vanish_for_product_outcomes():
    x = np.eye(2)[0]
    rows = np.array([np.kron(x, np.eye(3)[i]) for i in range(3)])
    outcomes = Dilation(2, 3, ["a0", "a1", "a2"], rows, x)
    residuals = residual_decompose(outcomes)
    for sigma in residuals:
        assert np.linalg.norm(sigma) <= 1e-12


def test_residuals_of_entangled_outcomes_lie_along_rejected_context():
    s = build_three_path()
    d = dilation_DA(s)
    residuals = residual_decompose(d)
    a_f = np.kron(s.a, s.f)
    for i in (1, 2, 3):
        sigma = outcome_row(d, f"D{i}", residuals)
        assert abs(norm_sq(sigma) - 1.0 / 3.0) <= 1e-9
        overlap = abs(np.vdot(a_f, unit(sigma)))
        assert abs(overlap - 1.0) <= 1e-9


def test_constraints_hold_for_three_path_dilations():
    s = build_three_path()
    for d in (dilation_VH(s), dilation_DA(s)):
        assert verify_constraints(d) <= 1e-9


def test_residual_gram_mirrors_element_gram():
    # <sigma(D,1)|sigma(D,2)> = +1/3 balances <lambda(D,1)|lambda(D,2)> = -1/3
    s = build_three_path()
    d = dilation_DA(s)
    sigmas = np.array([outcome_row(d, f"D{i}", residual_decompose(d)) for i in (1, 2)])
    assert abs(gram(sigmas)[0, 1] - (1.0 / 3.0)) <= 1e-12


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_constraints_hold_for_random_dilations(env_dim, sys_dim, seed):
    d = _random_dilation(np.random.default_rng(seed), env_dim, sys_dim)
    assert verify_constraints(d) <= 1e-9
    derived = povm_from_dilation(d)
    assert completeness_check(derived) <= 1e-9
    # the lambda Gram matrix is a rank-d_S projection
    g = gram(derived.vectors)
    assert np.abs(g @ g - g).max() <= 1e-9
    assert abs(np.trace(g).real - sys_dim) <= 1e-9


def _branch_residuals(d):
    """The off-diagonal and diagonal residuals of G_sigma + G_lambda = I, in plain numpy."""
    lambdas = d.phi_init.conj() @ d.vectors.reshape(-1, d.env_dim, d.sys_dim)
    sigmas = residual_decompose(d)
    total = sigmas.conj() @ sigmas.T + lambdas.conj() @ lambdas.T
    off = total[~np.eye(len(total), dtype=bool)]
    orthogonality = float(np.abs(off).max()) if off.size else 0.0
    return orthogonality, float(np.abs(np.diag(total) - 1.0).max())


def test_the_constraint_residual_is_the_larger_branch_residual():
    s = build_three_path()
    dilations = [load_fixture(name).dilation for name in ("three-path-DA", "three-path-VH")]
    dilations += [dilation_DA(s, phi) for phi in (s.h, s.v, s.a)]
    rng = np.random.default_rng(34)
    for _ in range(40):
        dim, extra = int(rng.integers(1, 9)), int(rng.integers(0, 9))
        dilations.append(naimark_dilate(random_rank1_povm(rng, dim, dim + extra)))
    for d in dilations:
        residual = verify_constraints(d)
        assert type(residual) is float
        assert residual == max(_branch_residuals(d))


def test_an_overflowing_constraint_residual_raises():
    huge = Dilation(2, 1, ["a", "b"], np.eye(2), [1e200, 0.0], tol=np.inf)
    with pytest.raises(FloatingPointError, match="^the constraint residual is not finite$"):
        verify_constraints(huge)


def test_perturbed_outcomes_are_reported_not_raised():
    s = build_three_path()
    outcomes = dilation_DA(s)
    bumped = np.array(outcomes.vectors)
    bumped[outcomes.labels().index("D1"), 0] += 1e-3
    loose = Dilation(2, 3, outcomes.labels(), bumped, s.d, tol=np.inf)
    assert 1e-4 < verify_constraints(loose) < 1e-2


def test_naimark_of_projective_povm_has_no_residual():
    p = Povm(3, ["b0", "b1", "b2"], np.eye(3))
    d = naimark_dilate(p)
    assert d.env_dim == 3
    np.testing.assert_allclose(d.phi_init, [1.0, 0.0, 0.0])
    for sigma in residual_decompose(d):
        assert np.linalg.norm(sigma) <= 1e-9


def test_naimark_round_trip_on_three_path_povm():
    from ctxlab import povm_DA

    p = povm_DA(build_three_path())
    d = naimark_dilate(p)
    assert d.env_dim == len(p)
    assert orthonormality_residual(d.vectors) <= 1e-9
    again = povm_from_dilation(d)
    assert again.labels() == p.labels()
    for row, row2 in zip(p.vectors, again.vectors):
        assert np.abs(row - row2).max() <= 1e-9


@st.composite
def _povm_shapes(draw):
    """A system dimension d in 2-8 and an element count M in d-3d."""
    dim = draw(st.integers(2, 8))
    return dim, draw(st.integers(dim, 3 * dim))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_povm_shapes(), st.integers(0, 2**32 - 1))
def test_naimark_round_trip_on_random_povm(shape, seed):
    p = random_rank1_povm(np.random.default_rng(seed), *shape)
    d = naimark_dilate(p)
    again = povm_from_dilation(d)
    for row, row2 in zip(p.vectors, again.vectors):
        assert np.abs(row - row2).max() <= 1e-9
    # <sigma(m)|sigma(m')> + <lambda(m)|lambda(m')> = delta(m, m'), in plain numpy
    sigmas, lambdas = residual_decompose(d), again.vectors
    total = sigmas.conj() @ sigmas.T + lambdas.conj() @ lambdas.T
    assert np.abs(total - np.eye(len(p))).max() <= 1e-9


def test_naimark_round_trip_returns_the_povm_with_canonical_phases():
    rng = np.random.default_rng(31)
    rows = random_rank1_povm(rng, 4, 16).vectors
    phases = np.exp(2j * np.pi * rng.uniform(size=(16, 1)))
    p = Povm(4, [f"m{k}" for k in range(16)], rows * phases)
    again = povm_from_dilation(naimark_dilate(p))
    assert again == Povm(4, p.labels(), fix_phase(p.vectors))
    assert np.abs(again.vectors - p.vectors).max() > 0.1  # not p: its phases are not canonical
    canonical = random_rank1_povm(rng, 4, 16)
    assert povm_from_dilation(naimark_dilate(canonical)) == canonical
    # the constructor keeps the phases it is given, so this POVM is not its round trip
    kept = Povm(2, ["a", "b"], [[0, 1j], [1j, 0]])
    again = povm_from_dilation(naimark_dilate(kept))
    assert again != kept and again == Povm(2, ["a", "b"], [[0, 1], [1, 0]])


def test_naimark_round_trip_is_exact_on_seeded_canonical_povms():
    rng = np.random.default_rng(36)
    for _ in range(300):
        dim = int(rng.integers(2, 17))
        p = random_rank1_povm(rng, dim, int(rng.integers(dim, 2 * dim + 1)))
        assert povm_from_dilation(naimark_dilate(p)) == p


def test_naimark_rejects_incomplete_and_operator_povms():
    p = Povm(3, ["only"], np.array([[1.0, 0.0, 0.0]]) / SQ2)
    with pytest.raises(ValidationError) as err:
        naimark_dilate(p)
    assert err.value.invariant == "completeness"
    identity = {0: np.eye(2)}
    with pytest.raises(ValidationError) as err:
        naimark_dilate(Povm(2, ["op"], np.zeros((1, 2), dtype=complex), identity))
    assert err.value.invariant == "rank-one"
    heavy = Povm(2, ["a", "b"], np.diag([np.sqrt(1.5), 1.0]))
    with pytest.raises(ValidationError) as err:
        naimark_dilate(heavy)
    assert err.value.invariant == "element-bounds"


def test_the_switched_VH_readout_is_dilation_VH():
    s = build_three_path()
    hwp = np.eye(3) - 2.0 * np.outer(s.f, s.f.conj())
    labels = ["V1", "V2", "V3", "H1", "H2", "H3"]
    assert switched([(s.v, np.eye(3)), (s.h, hwp)], s.paths, s.d, labels) == dilation_VH(s)


def test_single_context_gives_rotated_projective_povm():
    rng = np.random.default_rng(31)
    u = random_unitary(rng, 2)
    x = np.eye(2)[0]
    p = povm_from_dilation(switched([(x, u)], np.eye(2), x))
    assert completeness_check(p) <= 1e-12
    for label in p.labels():
        assert abs(norm_sq(element_row(p, label)) - 1.0) <= 1e-12


def test_uniform_context_choice_scales_every_weight():
    for count in (2, 3, 5):
        contexts = [(env, np.eye(2)) for env in np.eye(count)]
        phi = np.ones(count) / np.sqrt(count)
        p = povm_from_dilation(switched(contexts, np.eye(2), phi))
        assert completeness_check(p) <= 1e-12
        for label in p.labels():
            assert abs(norm_sq(element_row(p, label)) - 1.0 / count) <= 1e-12


def test_overlapping_contexts_and_non_unitary_rotations_are_not_orthonormal_outcomes():
    x = np.eye(2)[0]
    for contexts in ([(x, np.eye(2)), (x, np.eye(2))], [(x, np.diag([1.0, 2.0]))]):
        with pytest.raises(ValidationError) as err:
            switched(contexts, np.eye(2), x)
        assert err.value.invariant == "outcome-orthonormality"


def test_incomplete_context_span_leaves_incomplete_povm():
    x = np.eye(2)[0]
    phi = np.array([1.0, 1.0]) / SQ2
    p = povm_from_dilation(switched([(x, np.eye(2))], np.eye(2), phi))
    assert abs(completeness_check(p) - 0.5) <= 1e-12


def test_the_environment_selects_each_context_with_its_overlap_squared():
    """Context x carries weight |<phi|x>|^2 and element <phi|x> <x|m> for each of its
    outcomes m, so the POVM misses completeness by what phi has outside the span of the
    context kets, and the outcomes of a live context share it. Every other case is a random
    choice of basis: the kets e_x herald the bases, and phi = sqrt(P) with some P(x) = 0."""
    rng = np.random.default_rng(29)
    for case in range(300):
        env_dim, sys_dim = rng.integers(1, 5), rng.integers(1, 6)
        if case % 2:
            count, envs = env_dim, np.eye(env_dim)
            weights = rng.random(env_dim) * rng.integers(0, 2, env_dim)
            weights[rng.integers(env_dim)] = 1.0
            phi = np.sqrt(weights / weights.sum())
        else:
            count = rng.integers(1, env_dim + 1)
            envs = random_unitary(rng, env_dim)[:count]
            phi = unit(rng.normal(size=env_dim) + 1j * rng.normal(size=env_dim))
        contexts = [(env, random_unitary(rng, sys_dim)) for env in envs]
        d = switched(contexts, random_unitary(rng, sys_dim).T, phi)
        p = povm_from_dilation(d)
        for k, row in enumerate(d.vectors):
            env = envs[k // sys_dim]
            expected = np.vdot(phi, env) * (env.conj() @ row.reshape(env_dim, sys_dim))
            assert phase_aligned_max_err(p.vectors[k], expected) <= 1e-12
        chosen = np.abs(envs.conj() @ phi) ** 2
        weights = [context_selection_probability(p, label) for label in p.labels()]
        assert np.abs(np.reshape(weights, (count, sys_dim)) - chosen[:, None]).max() <= 1e-12
        assert abs(completeness_check(p) - (1.0 - chosen.sum())) <= 1e-12
        edges = {frozenset((a, b)) for a, b, _ in context_graph(p).edges}
        for x in np.flatnonzero(chosen > 1e-9):
            outcomes = [f"{x}:{a}" for a in range(sys_dim)]
            pairs = {frozenset((a, b)) for a in outcomes for b in outcomes if a != b}
            assert pairs <= edges


def test_dilations_record_the_tol_that_validated_them():
    s = build_three_path()
    for build in (dilation_VH, dilation_DA):
        d = build(s, tol=1e-6)
        assert d.tol == 1e-6
        assert build(s).tol == 1e-9


def test_outcome_vectors_hold_one_read_only_row_per_outcome():
    d = dilation_DA(build_three_path())
    assert d.vectors.shape == (6, 6) and d.vectors.dtype == complex
    assert not d.vectors.flags.writeable
    with pytest.raises(ValueError):
        d.vectors[0, 0] = 1.0


def test_residual_rows_equal_the_per_outcome_contraction_bit_for_bit():
    rng = np.random.default_rng(59)
    for env_dim, sys_dim in ((2, 3), (3, 2), (4, 4)):
        d = _random_dilation(rng, env_dim, sys_dim)
        sigmas = residual_decompose(d)
        phi = d.phi_init
        for k, m in enumerate(d.vectors):
            expected = m - np.kron(phi, phi.conj() @ m.reshape(env_dim, sys_dim))
            assert np.array_equal(sigmas[k].view(float), expected.view(float))
