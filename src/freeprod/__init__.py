"""freeprod: exact symbolic toolkit for free-product trace identities and
free-dimension arithmetic.

Subpackages:

* ``trigalg``  - exact trig polynomials on [0, pi/2]; trace values in Q[1/pi]
* ``ncpart``   - non-crossing partitions and Kreweras complements
* ``freeword`` - word traces in a free product of moment-oracle legs
* ``matmodel`` - the 2x2 matrix model and exhaustive freeness harnesses
* ``freedim``  - parser, rewrite engine, and free-dimension functional
* ``cli``      - the ``freeprod`` command-line interface
"""

from .trigalg import PiValue, TrigPoly
from .ncpart import NCPartition, enumerate_nc, interval_blocks, kreweras, \
    verify_kreweras_interval_lemma
from .freeword import (
    CommLetter,
    FiniteCommLeg,
    FreeProduct,
    HaarLeg,
    HaarLetter,
    NCPoly,
    TrigLeg,
    TrigLetter,
    cumulants_to_moments,
    moments_to_cumulants,
    standard_model,
)
from .matmodel import Mat2, MatrixModel
from .freedim import NormalForm, Normalizer, fdim, normalize, parse

__version__ = "0.1.0"

__all__ = [
    "PiValue", "TrigPoly",
    "NCPartition", "enumerate_nc", "kreweras", "interval_blocks",
    "verify_kreweras_interval_lemma",
    "FreeProduct", "TrigLeg", "HaarLeg", "FiniteCommLeg",
    "TrigLetter", "HaarLetter", "CommLetter", "NCPoly",
    "moments_to_cumulants", "cumulants_to_moments",
    "standard_model",
    "Mat2", "MatrixModel",
    "NormalForm", "Normalizer", "fdim", "normalize", "parse",
    "__version__",
]
