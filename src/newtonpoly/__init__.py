"""Exact symbolic engine for Newton-iterate polynomials of the general quadratic.

Builds the numerator/denominator pair (P_n, Q_n) of the n-fold symbolic
Newton iterate three independent ways (recurrence, explicit double sums,
root/conjugacy form), proves their equality at desk scale, certifies the
2^n-smoothness of the coefficients, and checks the noncommutative q-analogue
for small n.  Everything is exact: big integers, rationals, and quadratic
irrationalities only; no floating point anywhere.
"""

from .closedform import (
    AuditRecord,
    binomial,
    closed_audit,
    closed_p,
    closed_q,
    lemma1_check,
    lemma1_recurrence_check,
    lemma1_rhs,
    power_difference,
)
from .errors import DEFAULT_CAP, DomainError, ResourceCapError, StructuralError
from .newton import (
    CoprimalityReport,
    NewtonPair,
    QuadraticCoeffs,
    coprimality_check,
    eval_pair,
    iterate_pair,
    iterate_value,
    newton_step,
    sylvester_resultant,
)
from .polyring import ABCQ, ABCQXY, ABCX, X_ONLY, XY, MultiPoly, VariableSet, divexact, nc_mul
from .qalgebra import (
    QConjectureReport,
    conjecture_check,
    nc_closed,
    nc_iterate,
    qbinomial,
    qbinomial_product_value,
    qbinomial_theorem_check,
)
from .quadfield import ConjugacyReport, conjugacy_check, root_form_pair
from .smoothness import (
    SmoothnessReport,
    SmoothPart,
    certify_pair,
    sieve_primes,
    smooth_part,
)

__version__ = "0.1.0"
