"""Measurement-context selection by environmental fluctuations.

Build POVMs from system-environment dilations, split joint outcomes into
system and residual components, reconstruct dilations from POVMs, map which
outcomes can share a measurement context, and evaluate rescaled-probability
contextuality tests, with the three-path interferometer as a worked scenario.
"""

from .errors import (
    CtxlabError,
    ScenarioFileError,
    SpaceMismatchError,
    UnknownLabelError,
    ValidationError,
)
from .hilbert import (
    DEFAULT_TOL,
    fix_phase,
    gram,
    orthonormality_residual,
)
from .povm import (
    ContextGraph,
    Povm,
    coarse_grain,
    completeness_check,
    context_graph,
    context_selection_probability,
    element_bound_residual,
    maximizing_state,
    probability,
    rescaled_probability,
    validate_povm,
)
from .dilation import (
    Dilation,
    naimark_dilate,
    povm_from_dilation,
    residual_decompose,
    verify_constraints,
)
from .contextuality import (
    Certification,
    HardyTriple,
    InequalityReport,
    evaluate_inequality,
    hardy_embedding_povm,
    hardy_state,
    max_violation,
)
from .interferometer import (
    ThreePathScenario,
    build_three_path,
    dilation_DA,
    dilation_VH,
    hwp_transform,
    povm_DA,
)
from .scenario_io import (
    SCHEMA_VERSION,
    Scenario,
    decode_matrix,
    decode_vector,
    encode_vector,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)
from .fixtures import (
    FIXTURE_NAMES,
    fixture_path,
    load_fixture,
    write_fixtures,
)

__version__ = "0.1.0"
