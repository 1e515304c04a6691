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
    DensityMatrix,
    Dilation,
    HardyTriple,
    JointOutcomeSet,
    Ket,
    Operator,
    Povm,
    ScenarioFileError,
    Space,
    SpaceMismatchError,
    UnknownLabelError,
    ValidationError,
    basis_ket,
    basis_mixture_povm,
    context_switch_povm,
    maximizing_state,
    rescaled_probability,
    scenario_from_dict,
    share_context,
    tensor,
)

SYS2 = Space.system(2)
ENV2 = Space.environment(2)
JOINT = Space.joint(2, 2)
E0, E1 = basis_ket(SYS2, 0), basis_ket(SYS2, 1)
X0, X1 = basis_ket(ENV2, 0), basis_ket(ENV2, 1)
ZERO = Ket(SYS2, [0.0, 0.0])
IDENTITY = Operator.identity(SYS2)
SKEWED = Operator(SYS2, np.array([[1.0, 1.0], [0.0, 0.0]]))  # hermiticity residual 1


def _povm_with_zero_vector():
    return Povm(2, ["z", "e1"], np.array([ZERO.amplitudes, E1.amplitudes]))


def _povm_with_zero_operator():
    zero = Operator(SYS2, np.zeros((2, 2)))
    rows = np.array([ZERO.amplitudes, E1.amplitudes])
    return Povm(2, ["z", "e1"], rows, {0: zero})


def _povm_with_operator(key, operator):
    return lambda: Povm(2, ["x"], np.zeros((1, 2)), {key: operator})


def _outcome_set(pairs):
    labels = [label for label, _ in pairs]
    return JointOutcomeSet(JOINT, labels, np.array([ket.amplitudes for _, ket in pairs]))


def _entries(section, entry):
    raw = {"version": 1, "system_dim": 2, section: [dict(label="x", **entry)]}
    return lambda: scenario_from_dict(raw)


VECTOR = [[1.0, 0.0], [0.0, 0.0]]
MATRIX = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
SKEWED_MATRIX = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]

ZERO_WEIGHT = "element 'z' has zero weight"
OUTCOMES = (("a", tensor(X0, E0)), ("b", tensor(X1, E1)))
LONG_PHI = Ket(ENV2, [2.0, 0.0])

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
    "share_context": (
        lambda: share_context(_povm_with_zero_vector(), "e1", "z"),
        ValidationError, "nonzero-element", ZERO_WEIGHT,
    ),
    "hardy-unit-direction": (
        lambda: HardyTriple.from_povm(_povm_with_zero_vector(), "e1", "z", "e1"),
        ValidationError, "nonzero-element", ZERO_WEIGHT,
    ),
    "outcome-set-orthonormality": (
        lambda: _outcome_set((("a", tensor(X0, E0)), ("b", tensor(X0, E0)))),
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
    "povm-element-off-the-system-space": (
        _povm_with_operator(0, Operator.identity(ENV2)),
        SpaceMismatchError, None, "element 'x' is not on the dim-2 system space",
    ),
    "povm-element-key-not-a-position": (
        _povm_with_operator("x", IDENTITY),
        ValidationError, "element-payload", "operator position 'x' is not one of the 1 positions",
    ),
    "density-matrix-hermiticity": (
        lambda: DensityMatrix(SKEWED),
        ValidationError, "hermiticity", "density matrix is not Hermitian (residual 1.000e+00)",
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
        lambda: Povm(2, ["a", "a"], np.array([E0.amplitudes, E1.amplitudes])),
        ValidationError, "unique-labels", "outcome labels must be unique",
    ),
    "outcome-set-unique-labels": (
        lambda: _outcome_set((("a", tensor(X0, E0)), ("a", tensor(X1, E1)))),
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


@pytest.mark.parametrize(("call", "error", "invariant", "message"), CASES.values(), ids=CASES)
def test_each_rule_site_raises_its_exact_error(call, error, invariant, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
    assert getattr(caught.value, "invariant", None) == invariant
