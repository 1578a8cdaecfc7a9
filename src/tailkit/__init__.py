"""tailkit: power-law tails in creator-earnings-style data.

The library covers four jobs that belong together:

* distribution primitives: Pareto / zeta power laws with density exponent
  alpha (the CCDF exponent is alpha - 1), inverse-CDF sampling, the
  empirical CCDF and the KS distance (`tailkit.powerlaw`, `tailkit.sample`);
* likelihood/KS tail fitting with data-driven threshold selection and a
  semiparametric bootstrap goodness-of-fit (`tailkit.fit`);
* alternative tail-index estimators (Hill, adjusted Hill, moments) with
  double-bootstrap threshold selection (`tailkit.estimators`);
* generative attention models (exploration/exploitation copying,
  preferential attachment) whose measured exponents close the loop to the
  predicted 1 + 1/(1 - gamma) (`tailkit.growth`);

plus a creator-earnings CSV pipeline (`tailkit.pipeline`), figure emitters
(`tailkit.report`), synthetic fixtures (`tailkit.fixtures`), and a CLI
(`python -m tailkit.cli` or the `tailkit` entry point).
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateTail,
    DomainError,
    EmptySample,
    InsufficientGrid,
    KindMismatch,
    RenderError,
    SampleTooSmall,
    SchemaError,
    SingularDesign,
    TailkitError,
)
from .estimators import (
    TailIndexEstimate,
    adjusted_hill,
    double_bootstrap_k,
    estimator_comparison,
    hill,
    moments,
)
from .fit import (
    GofResult,
    TailFit,
    fit_at,
    fit_report,
    gof_pvalue,
    mle_alpha,
    power_law_proportion,
    select_xmin,
)
from .growth import (
    DegreeSequence,
    ccdf_slope,
    measure_exponent,
    simulate_ba,
    simulate_copy,
    theoretical_alpha,
)
from .powerlaw import (
    PowerLawModel,
    hurwitz_zeta,
    ks_distance,
    pl_ccdf,
    pl_pdf,
    pl_ppf,
    pl_sample,
)
from .sample import CONTINUOUS, DISCRETE, Sample, empirical_ccdf, make_sample

__all__ = [
    "__version__",
    "CONTINUOUS",
    "DISCRETE",
    "DegenerateTail",
    "DegreeSequence",
    "DomainError",
    "EmptySample",
    "GofResult",
    "InsufficientGrid",
    "KindMismatch",
    "PowerLawModel",
    "RenderError",
    "Sample",
    "SampleTooSmall",
    "SchemaError",
    "SingularDesign",
    "TailFit",
    "TailIndexEstimate",
    "TailkitError",
    "adjusted_hill",
    "ccdf_slope",
    "double_bootstrap_k",
    "empirical_ccdf",
    "estimator_comparison",
    "fit_at",
    "fit_report",
    "gof_pvalue",
    "hill",
    "hurwitz_zeta",
    "ks_distance",
    "make_sample",
    "measure_exponent",
    "mle_alpha",
    "moments",
    "pl_ccdf",
    "pl_pdf",
    "pl_ppf",
    "pl_sample",
    "power_law_proportion",
    "select_xmin",
    "simulate_ba",
    "simulate_copy",
    "theoretical_alpha",
]
