"""Scalability analysis of finite frames in R^n."""

__version__ = "0.1.0"

from .frame_core import (  # noqa: F401
    Frame,
    FrameOperatorData,
    Tightness,
    apply_scaling,
    frame_from_synthesis,
    frame_operator,
    frame_potential,
    is_dual,
    is_tight,
    make_frame,
)
from .diagram import (  # noqa: F401
    diagram_gram_sum,
    diagram_inner_identity_check,
    diagram_vector,
    full_diagram_matrix,
    reduced_diagram_matrix,
)
from .scalability import (  # noqa: F401
    CofactorReport,
    ScalingResult,
    codim2_scaling,
    cofactor_scaling,
    decide,
    decide_scalable,
    hull_certificate_check,
    quick_sign_reject,
)
from .split_scaling import (  # noqa: F401
    ConeMembership,
    find_V_element,
    find_W_element,
    intersection_scalability,
    is_in_V,
    is_in_W,
)
from .duals import (  # noqa: F401
    DualPair,
    DualScalingReport,
    alternate_dual_from_scaling,
    canonical_dual,
    canonical_dual_scalable,
    check_transform_scaling,
    grammian_form_check,
    p1_counterexample,
    sylvester_hadamard,
)
