"""Dilations, derived POVMs, residual components, and the inverse construction."""

from __future__ import annotations

import numpy as np
import pytest

from ctxlab import (
    Dilation,
    JointOutcomeSet,
    Ket,
    Operator,
    Povm,
    PovmElement,
    Space,
    SpaceMismatchError,
    ValidationError,
    basis_ket,
    build_three_path,
    completeness_check,
    context_switch_povm,
    dilation_DA,
    dilation_VH,
    gram,
    naimark_dilate,
    partial_inner_env,
    povm_from_dilation,
    residual_decompose,
    tensor,
    verify_constraints,
)
from helpers import phase_aligned_max_err, random_pure_state, random_rank1_povm, random_unitary

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def _random_dilation(rng, env_dim, sys_dim):
    joint = Space.joint(env_dim, sys_dim)
    basis = random_unitary(rng, joint.dim)
    outcomes = tuple(
        (f"m{k}", Ket(joint, basis[:, k])) for k in range(joint.dim)
    )
    phi = rng.normal(size=env_dim) + 1j * rng.normal(size=env_dim)
    phi = Ket(Space.environment(env_dim), phi / np.linalg.norm(phi))
    return Dilation(JointOutcomeSet(joint, outcomes), phi)


def test_outcome_set_validates_orthonormality():
    joint = Space.joint(2, 3)
    v = basis_ket(Space.environment(2), 1)
    p1 = basis_ket(Space.system(3), 0)
    with pytest.raises(ValidationError) as err:
        JointOutcomeSet(joint, (("a", tensor(v, p1)), ("b", tensor(v, p1))))
    assert err.value.invariant == "unique-labels" or err.value.invariant == "outcome-orthonormality"
    with pytest.raises(ValidationError):
        JointOutcomeSet(
            joint,
            (
                ("a", tensor(v, p1)),
                ("b", tensor(v, Ket(Space.system(3), [0.9, 0.1, 0.0]))),
            ),
        )


def test_outcome_set_count_cannot_exceed_dimension():
    joint = Space.joint(1, 2)
    e = basis_ket(Space.environment(1), 0)
    kets = [tensor(e, basis_ket(Space.system(2), i)) for i in range(2)]
    with pytest.raises(ValidationError):
        JointOutcomeSet(joint, (("a", kets[0]), ("b", kets[1]), ("c", kets[0])))


def test_dilation_requires_normalised_environment_state():
    s = build_three_path()
    outcomes = dilation_VH(s).outcomes
    with pytest.raises(ValidationError):
        Dilation(outcomes, Ket(s.environment, [1.0, 1.0]))
    with pytest.raises(SpaceMismatchError):
        Dilation(outcomes, basis_ket(Space.environment(3), 0))


def test_product_outcomes_give_projective_elements():
    # outcomes |x> (x) |a> with phi_init = |x> contract to the bare basis
    env = Space.environment(2)
    sys3 = Space.system(3)
    x = basis_ket(env, 0)
    outcomes = JointOutcomeSet(
        Space.joint(2, 3),
        tuple((f"a{i}", tensor(x, basis_ket(sys3, i))) for i in range(3)),
    )
    p = povm_from_dilation(Dilation(outcomes, x))
    for i, el in enumerate(p.elements):
        assert abs(el.weight() - 1.0) <= 1e-12
        assert phase_aligned_max_err(el.vector.amplitudes, basis_ket(sys3, i).amplitudes) <= 1e-12


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
        el = p.element(label)
        assert abs(el.weight() - 0.5) <= 1e-12
        assert phase_aligned_max_err(el.vector.amplitudes, vec) <= 1e-12
    assert completeness_check(p) <= 1e-12


def test_outcomes_orthogonal_to_initial_condition_become_zero_elements():
    s = build_three_path()
    p = povm_from_dilation(dilation_VH(s, phi_init=s.h))
    for i in (1, 2, 3):
        assert p.element(f"V{i}").weight() <= 1e-15
        assert abs(p.element(f"H{i}").weight() - 1.0) <= 1e-12


def test_residuals_vanish_for_product_outcomes():
    env = Space.environment(2)
    x = basis_ket(env, 0)
    outcomes = JointOutcomeSet(
        Space.joint(2, 3),
        tuple((f"a{i}", tensor(x, basis_ket(Space.system(3), i))) for i in range(3)),
    )
    residuals = residual_decompose(Dilation(outcomes, x))
    for _, sigma in residuals.outcomes:
        assert sigma.norm() <= 1e-12


def test_residuals_of_entangled_outcomes_lie_along_rejected_context():
    s = build_three_path()
    residuals = residual_decompose(dilation_DA(s))
    a_f = tensor(s.a, s.f)
    for i in (1, 2, 3):
        sigma = residuals.ket(f"D{i}")
        assert abs(sigma.norm_sq() - 1.0 / 3.0) <= 1e-9
        overlap = abs(a_f.inner(sigma.normalized()))
        assert abs(overlap - 1.0) <= 1e-9


def test_constraints_hold_for_three_path_dilations():
    s = build_three_path()
    for d in (dilation_VH(s), dilation_DA(s)):
        report = verify_constraints(d)
        assert report.max_orthogonality_residual <= 1e-9
        assert report.max_normalisation_residual <= 1e-9
        assert report.ok()


def test_residual_gram_mirrors_element_gram():
    # <sigma(D,1)|sigma(D,2)> = +1/3 balances <lambda(D,1)|lambda(D,2)> = -1/3
    s = build_three_path()
    d = dilation_DA(s)
    sigmas = [residual_decompose(d).ket(f"D{i}") for i in (1, 2)]
    assert abs(gram(sigmas)[0, 1] - (1.0 / 3.0)) <= 1e-12


def test_constraints_hold_for_random_dilations():
    rng = np.random.default_rng(23)
    for env_dim, sys_dim in ((2, 2), (2, 3), (3, 2), (4, 3)):
        d = _random_dilation(rng, env_dim, sys_dim)
        report = verify_constraints(d)
        assert report.max_orthogonality_residual <= 1e-9
        assert report.max_normalisation_residual <= 1e-9
        derived = povm_from_dilation(d)
        assert completeness_check(derived) <= 1e-9
        # the lambda Gram matrix is a rank-d_S projection
        g = gram([el.vector for el in derived.elements])
        assert np.abs(g @ g - g).max() <= 1e-9
        assert abs(np.trace(g).real - sys_dim) <= 1e-9


def test_perturbed_outcomes_are_reported_not_raised():
    s = build_three_path()
    outcomes = dilation_DA(s).outcomes
    bumped = []
    for label, ket in outcomes.outcomes:
        amps = np.array(ket.amplitudes)
        if label == "D1":
            amps[0] += 1e-3
        bumped.append((label, Ket(outcomes.space, amps)))
    loose = JointOutcomeSet(outcomes.space, tuple(bumped), validate=False)
    report = verify_constraints(Dilation(loose, s.d))
    worst = max(report.max_orthogonality_residual, report.max_normalisation_residual)
    assert 1e-4 < worst < 1e-2
    assert not report.ok()


def test_naimark_of_projective_povm_has_no_residual():
    p = Povm.from_vectors([(f"b{i}", np.eye(3)[i]) for i in range(3)])
    d = naimark_dilate(p)
    assert d.outcomes.space.env_dim == 3
    np.testing.assert_allclose(d.phi_init.amplitudes, [1.0, 0.0, 0.0])
    for _, sigma in residual_decompose(d).outcomes:
        assert sigma.norm() <= 1e-9


def test_naimark_round_trip_on_three_path_povm():
    from ctxlab import povm_DA

    p = povm_DA(build_three_path(), merge_A=True)
    d = naimark_dilate(p)
    assert d.outcomes.space.env_dim == len(p)
    assert d.outcomes.orthonormality_residual() <= 1e-9
    again = povm_from_dilation(d)
    for el, el2 in zip(p.elements, again.elements):
        assert el.label == el2.label
        assert np.abs(el.vector.amplitudes - el2.vector.amplitudes).max() <= 1e-9


def test_naimark_round_trip_on_random_povm():
    rng = np.random.default_rng(29)
    p = random_rank1_povm(rng, 3, 5)
    again = povm_from_dilation(naimark_dilate(p))
    for el, el2 in zip(p.elements, again.elements):
        assert np.abs(el.vector.amplitudes - el2.vector.amplitudes).max() <= 1e-9


def test_naimark_rejects_incomplete_and_operator_povms():
    p = Povm.from_vectors([("only", np.array([1.0, 0.0, 0.0]) / SQ2)])
    with pytest.raises(ValidationError) as err:
        naimark_dilate(p)
    assert err.value.invariant == "completeness"
    op_el = PovmElement("op", operator=Operator.identity(Space.system(2)))
    with pytest.raises(ValidationError) as err:
        naimark_dilate(Povm(2, (op_el,)))
    assert err.value.invariant == "rank-one-elements"
    heavy = Povm.from_vectors([("a", np.array([np.sqrt(1.5), 0.0])), ("b", np.array([0.0, 1.0]))])
    with pytest.raises(ValidationError) as err:
        naimark_dilate(heavy)
    assert err.value.invariant == "element-bounds"


def test_context_switch_matches_dilation_derivation():
    s = build_three_path()
    hwp = Operator(s.system, np.eye(3) - 2.0 * s.f.projector())
    p = context_switch_povm(
        contexts=[(s.v, Operator.identity(s.system)), (s.h, hwp)],
        basis=list(s.paths),
        phi_init=s.d,
        labels=[["V1", "V2", "V3"], ["H1", "H2", "H3"]],
    )
    q = povm_from_dilation(dilation_VH(s))
    assert p.labels() == q.labels()
    for el, el2 in zip(p.elements, q.elements):
        assert np.abs(el.vector.amplitudes - el2.vector.amplitudes).max() <= 1e-12


def test_single_context_gives_rotated_projective_povm():
    env = Space.environment(2)
    sys2 = Space.system(2)
    rng = np.random.default_rng(31)
    u = Operator(sys2, random_unitary(rng, 2))
    x = basis_ket(env, 0)
    p = context_switch_povm([(x, u)], [basis_ket(sys2, 0), basis_ket(sys2, 1)], x)
    assert completeness_check(p) <= 1e-12
    for el in p.elements:
        assert abs(el.weight() - 1.0) <= 1e-12


def test_uniform_context_choice_scales_every_weight():
    sys2 = Space.system(2)
    for count in (2, 3, 5):
        env = Space.environment(count)
        contexts = [(basis_ket(env, x), Operator.identity(sys2)) for x in range(count)]
        phi = Ket(env, np.ones(count) / np.sqrt(count))
        p = context_switch_povm(contexts, [basis_ket(sys2, 0), basis_ket(sys2, 1)], phi)
        assert completeness_check(p) <= 1e-12
        for el in p.elements:
            assert abs(el.weight() - 1.0 / count) <= 1e-12


def test_context_switch_validates_inputs():
    env = Space.environment(2)
    sys2 = Space.system(2)
    x = basis_ket(env, 0)
    basis = [basis_ket(sys2, 0), basis_ket(sys2, 1)]
    not_unitary = Operator(sys2, np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValidationError) as err:
        context_switch_povm([(x, not_unitary)], basis, x)
    assert err.value.invariant == "unitarity"
    overlapping = [(x, Operator.identity(sys2)), (x, Operator.identity(sys2))]
    with pytest.raises(ValidationError):
        context_switch_povm(overlapping, basis, x)
    with pytest.raises(ValidationError):
        context_switch_povm([(x, Operator.identity(sys2))], [basis[0]], x)


def test_incomplete_context_span_leaves_incomplete_povm():
    env = Space.environment(2)
    sys2 = Space.system(2)
    x = basis_ket(env, 0)
    phi = Ket(env, np.array([1.0, 1.0]) / SQ2)
    p = context_switch_povm([(x, Operator.identity(sys2))], [basis_ket(sys2, 0), basis_ket(sys2, 1)], phi)
    assert abs(completeness_check(p) - 0.5) <= 1e-12


def test_dilations_record_the_tol_that_validated_them():
    s = build_three_path()
    for build in (dilation_VH, dilation_DA):
        d = build(s, tol=1e-6)
        assert d.tol == 1e-6 and d.outcomes.tol == 1e-6
        assert build(s).tol == 1e-9


def test_outcome_vectors_stack_the_kets_read_only():
    d = dilation_DA(build_three_path())
    stack = np.stack([ket.amplitudes for _, ket in d.outcomes.outcomes])
    assert np.array_equal(d.outcomes.vectors, stack)
    assert not d.outcomes.vectors.flags.writeable


def test_residual_rows_equal_the_per_outcome_contraction_bit_for_bit():
    rng = np.random.default_rng(59)
    for env_dim, sys_dim in ((2, 3), (3, 2), (4, 4)):
        d = _random_dilation(rng, env_dim, sys_dim)
        sigmas = residual_decompose(d).vectors
        for k, (_, m) in enumerate(d.outcomes.outcomes):
            expected = m - tensor(d.phi_init, partial_inner_env(d.phi_init, m))
            assert np.array_equal(sigmas[k].view(float), expected.amplitudes.view(float))
