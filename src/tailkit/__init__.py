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

`import tailkit` exports `__version__` and exactly the names in the
`__all__` of `errors`, `estimators`, `fit`, `growth`, `powerlaw` and
`sample`; each public name is declared once, in its module's `__all__`.
Other modules are reached by name (`tailkit.pipeline`, `tailkit.report`).
"""

__version__ = "0.1.0"

from . import errors, estimators, fit, growth, powerlaw, sample
from .errors import *
from .estimators import *
from .fit import *
from .growth import *
from .powerlaw import *
from .sample import *

__all__ = ["__version__", *errors.__all__, *estimators.__all__, *fit.__all__,
           *growth.__all__, *powerlaw.__all__, *sample.__all__]
