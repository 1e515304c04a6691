"""Every call site of each shared validation rule, pinned to its exact error.

Each case maps one call to the exception type, the invariant name and the full
message it raises, so moving a rule behind one function cannot change what
any of its callers reports.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from ctxlab import (
    Dilation,
    HardyTriple,
    JointOutcomeSet,
    Povm,
    Scenario,
    ScenarioFileError,
    SpaceMismatchError,
    UnknownLabelError,
    ValidationError,
    basis_mixture_povm,
    context_switch_povm,
    evaluate_inequality,
    load_fixture,
    maximizing_state,
    probability,
    rescaled_probability,
    scenario_from_dict,
)

E0, E1 = np.eye(2)  # system basis
X0, X1 = np.eye(2)  # environment basis
ZERO = np.zeros(2)
IDENTITY = np.eye(2)
SKEWED = np.array([[1.0, 1.0], [0.0, 0.0]])  # hermiticity residual 1


def _povm_with_zero_vector():
    return Povm(2, ["z", "e1"], np.array([ZERO, E1]))


def _povm_with_zero_operator():
    rows = np.array([ZERO, E1])
    return Povm(2, ["z", "e1"], rows, {0: np.zeros((2, 2))})


def _povm_with_operator(key, operator):
    return lambda: Povm(2, ["x"], np.zeros((1, 2)), {key: operator})


def _outcome_set(pairs):
    labels = [label for label, _ in pairs]
    return JointOutcomeSet(2, 2, labels, np.array([ket for _, ket in pairs]))


def _hardy_triple():
    scenario = load_fixture("hardy")
    return HardyTriple.from_povm(scenario.povm, *scenario.hardy)


def _entries(section, entry):
    raw = {"version": 1, "system_dim": 2, section: [dict(label="x", **entry)]}
    return lambda: scenario_from_dict(raw)


VECTOR = [[1.0, 0.0], [0.0, 0.0]]
MATRIX = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
SKEWED_MATRIX = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]

ZERO_WEIGHT = "element 'z' has zero weight"
OUTCOMES = (("a", np.kron(X0, E0)), ("b", np.kron(X1, E1)))
LONG_PHI = np.array([2.0, 0.0])

CASES = {
    "maximizing_state-vector": (
        lambda: maximizing_state(_povm_with_zero_vector(), "z"),
        ValidationError, "nonzero-element", ZERO_WEIGHT,
    ),
    "maximizing_state-operator": (
        lambda: maximizing_state(_povm_with_zero_operator(), "z"),
        ValidationError, "nonzero-element", ZERO_WEIGHT,
    ),
    "rescaled_probability": (
        lambda: rescaled_probability(_povm_with_zero_vector(), E0, "z"),
        ValidationError, "nonzero-element", ZERO_WEIGHT,
    ),
    "hardy-unit-direction": (
        lambda: HardyTriple.from_povm(_povm_with_zero_vector(), "e1", "z", "e1"),
        ValidationError, "nonzero-element", ZERO_WEIGHT,
    ),
    "outcome-set-orthonormality": (
        lambda: _outcome_set((("a", np.kron(X0, E0)), ("b", np.kron(X0, E0)))),
        ValidationError, "outcome-orthonormality",
        "outcome set is not orthonormal (residual 1.000e+00)",
    ),
    "basis-mixture-orthonormality": (
        lambda: basis_mixture_povm([[E0, E1], [E0, E0]], [0.5, 0.5]),
        ValidationError, "basis-orthonormality",
        "basis 1 is not orthonormal (residual 1.000e+00)",
    ),
    "context-switch-context-orthonormality": (
        lambda: context_switch_povm([(X0, IDENTITY), (X0, IDENTITY)], [E0, E1], X0),
        ValidationError, "context-orthonormality",
        "context states are not orthonormal (residual 1.000e+00)",
    ),
    "context-switch-basis-orthonormality": (
        lambda: context_switch_povm([(X0, IDENTITY)], [E0, E0], X0),
        ValidationError, "basis-orthonormality",
        "readout basis is not orthonormal (residual 1.000e+00)",
    ),
    "dilation-phi-init-normalisation": (
        lambda: Dilation(_outcome_set(OUTCOMES), LONG_PHI),
        ValidationError, "phi-init-normalisation", "phi_init must be normalised",
    ),
    "context-switch-phi-init-normalisation": (
        lambda: context_switch_povm([(X0, IDENTITY)], [E0, E1], LONG_PHI),
        ValidationError, "phi-init-normalisation", "phi_init must be normalised",
    ),
    "povm-element-hermiticity": (
        _povm_with_operator(0, SKEWED),
        ValidationError, "hermiticity", "element 'x' is not Hermitian (residual 1.000e+00)",
    ),
    "povm-file-element-hermiticity": (
        _entries("povm", {"matrix": SKEWED_MATRIX}),
        ValidationError, "hermiticity", "element 'x' is not Hermitian (residual 1.000e+00)",
    ),
    "povm-element-of-another-shape": (
        _povm_with_operator(0, np.eye(3)),
        SpaceMismatchError, None, "a matrix of shape (3, 3) for element 'x' of dim 2",
    ),
    "context-switch-unitary-of-another-shape": (
        lambda: context_switch_povm([(X0, np.eye(3))], [E0, E1], X0),
        SpaceMismatchError, None, "a matrix of shape (3, 3) for context 0's unitary on dim 2",
    ),
    "outcome-set-factor-dim": (
        lambda: JointOutcomeSet(0, 2, ["a"], np.zeros((1, 0))),
        ValidationError, "space-dim", "space dimension must be at least 1",
    ),
    "povm-element-key-not-a-position": (
        _povm_with_operator("x", IDENTITY),
        ValidationError, "element-payload", "operator position 'x' is not one of the 1 positions",
    ),
    "density-matrix-hermiticity": (
        lambda: probability(_povm_with_zero_vector(), SKEWED, "e1"),
        ValidationError, "hermiticity", "density matrix is not Hermitian (residual 1.000e+00)",
    ),
    "probability-state-of-another-dim": (
        lambda: probability(_povm_with_zero_vector(), np.eye(4)[0], "e1"),
        SpaceMismatchError, None, "state dim 4 != system dim 2",
    ),
    "inequality-state-of-another-dim": (
        lambda: evaluate_inequality(_hardy_triple(), np.eye(2) / 2),
        SpaceMismatchError, None, "state dim 2 != system dim 3",
    ),
    "basis-mixture-count": (
        lambda: basis_mixture_povm([[E0, E1], [E0]], [0.5, 0.5]),
        ValidationError, "basis-completeness", "basis 1 has 1 kets for dim 2",
    ),
    "context-switch-count": (
        lambda: context_switch_povm([(X0, IDENTITY)], [E0], X0),
        ValidationError, "basis-completeness", "readout basis has 1 kets for dim 2",
    ),
    "povm-unique-labels": (
        lambda: Povm(2, ["a", "a"], np.array([E0, E1])),
        ValidationError, "unique-labels", "outcome labels must be unique",
    ),
    "outcome-set-unique-labels": (
        lambda: _outcome_set((("a", np.kron(X0, E0)), ("a", np.kron(X1, E1)))),
        ValidationError, "unique-labels", "outcome labels must be unique",
    ),
    "povm-unknown-label": (
        lambda: rescaled_probability(_povm_with_zero_vector(), E0, "missing"),
        UnknownLabelError, None, "no outcome labelled 'missing'",
    ),
    "povm-entry-both": (
        _entries("povm", {"vector": VECTOR, "matrix": MATRIX}),
        ScenarioFileError, None, "povm element 'x' needs exactly one of vector/matrix",
    ),
    "povm-entry-neither": (
        _entries("povm", {}),
        ScenarioFileError, None, "povm element 'x' needs exactly one of vector/matrix",
    ),
    "povm-entry-bad-vector": (
        _entries("povm", {"vector": VECTOR[:1]}),
        ScenarioFileError, None, "povm 'x': expected 2 [re, im] pairs",
    ),
    "povm-entry-bad-matrix": (
        _entries("povm", {"matrix": MATRIX[:1]}),
        ScenarioFileError, None, "povm 'x': expected a 2x2 matrix",
    ),
    "state-entry-both": (
        _entries("states", {"vector": VECTOR, "matrix": MATRIX}),
        ScenarioFileError, None, "state 'x' needs exactly one of vector/matrix",
    ),
    "state-entry-neither": (
        _entries("states", {}),
        ScenarioFileError, None, "state 'x' needs exactly one of vector/matrix",
    ),
    "state-entry-bad-vector": (
        _entries("states", {"vector": VECTOR[:1]}),
        ScenarioFileError, None, "state 'x': expected 2 [re, im] pairs",
    ),
    "state-entry-bad-matrix": (
        _entries("states", {"matrix": MATRIX[:1]}),
        ScenarioFileError, None, "state 'x': expected a 2x2 matrix",
    ),
}
# A state that is not one ket or one square matrix, as each caller of the state boundary
# names it: numpy's own ValueError must never escape.
MALFORMED_STATES = {
    "ragged": ([[1.0, 0.0], [0.0]], "values that are not one complex state"),
    "string-entry": ([1.0, "x"], "values that are not one complex state"),
    "three-axes": (np.ones((2, 2, 1)), "a matrix of shape (2, 2, 1)"),
    "non-square": (np.ones((2, 3)), "a matrix of shape (2, 3)"),
}
for name, (state, problem) in MALFORMED_STATES.items():
    CASES[f"probability-{name}"] = (
        lambda state=state: probability(_povm_with_zero_vector(), state, "e1"),
        SpaceMismatchError, None, f"{problem} for a dim-2 system",
    )
    CASES[f"inequality-{name}"] = (
        lambda state=state: evaluate_inequality(_hardy_triple(), state),
        SpaceMismatchError, None, f"{problem} for a dim-3 system",
    )
    CASES[f"scenario-{name}"] = (
        lambda state=state: Scenario(2, states={"x": state}),
        SpaceMismatchError, None, f"{problem} for state 'x'",
    )


@pytest.mark.parametrize(("call", "error", "invariant", "message"), CASES.values(), ids=CASES)
def test_each_rule_site_raises_its_exact_error(call, error, invariant, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
    assert getattr(caught.value, "invariant", None) == invariant
