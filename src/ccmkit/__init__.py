"""Verification and feedback design for control contraction metrics.

Subpackage map:

* expr         -- expression parsing, evaluation, differentiation
* model        -- system/metric/grid types, spec files, compiled raw
                  evaluation (stacked, or one point with Plant.raw), and
                  Report, whose to_dict serializes every result
* differential -- H_i, Q and the affine-in-u feedback terms behind (a, b),
                  over stacked points
* verifier     -- kernel, margin and psi-certificate stages over stacked
                  points, grid checks, verification reports
* controller   -- rho feedback, path discretization, tracking control
* simulator    -- RK4 integration, closed-loop runs, convergence fits
* transforms   -- input transforms and the certificate's transport
* cli          -- validate / verify / simulate / demo-counterexample
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    cli,
    controller,
    differential,
    expr,
    model,
    simulator,
    transforms,
    verifier,
)
from .controller import (  # noqa: F401
    ControllerConfig,
    Infeasible,
    PathDiscretization,
    build_path,
    differential_feedback,
    path_energy,
    rho,
    tracking_feedback,
)
from .differential import (  # noqa: F401
    compute_H,
    compute_Q,
    compute_ab,
)
from .expr import (  # noqa: F401
    Expression,
    differentiate,
    evaluate,
    free_variables,
    jacobian,
    parse,
    to_text,
)
from .model import (  # noqa: F401
    GridSpec,
    MetricSpec,
    RawEval,
    Scenario,
    SpecError,
    SpecFile,
    SystemSpec,
    bundled_spec_path,
    check_metric_bounds,
    load_spec_file,
    plant_for,
)
from .simulator import (  # noqa: F401
    ConvergenceReport,
    NonFiniteStateError,
    Trajectory,
    convergence_metrics,
    integrate,
    simulate_closed_loop,
    tracking_cost,
    write_csv,
)
from .transforms import (  # noqa: F401
    FeedbackTransform,
    apply_feedback_transform,
    invariance_probe,
)
from .verifier import (  # noqa: F401
    CertificateInvalid,
    PsiCertificate,
    VerificationReport,
    check_condition1,
    check_contraction,
    check_strong_conditions,
    construct_psi,
    fit_psi_power_law,
    kernel_basis,
    verify,
)
