"""Exact-arithmetic toolkit for unit-interval connectives, their fuzzy
and vague substructures, and lattice-valued generalizations, with
exhaustive desk-scale checkers that emit witnesses and counterexamples."""

from .connectives import (A_MIN, BUILTIN_TCONORMS, BUILTIN_TNORMS, Connective,
                          Role, S_D, S_L, S_M, S_P, T_D, T_L, T_M, T_P,
                          construct_nullnorm, construct_uninorm_max,
                          construct_uninorm_min, dualize, parse_operator,
                          power_iterate)
from .errors import (BudgetExceededError, DegenerateParameterError,
                     DomainError, FuzznormError, NotALatticeError,
                     InputFormatError, TotalityError, UnboundedPosetError,
                     UnknownOperatorError)
from .reports import (FinitePoints, GridDomain, PropertyReport, SearchBudget,
                      Verdict, Witness, dumps)
from .scalars import ONE, ZERO, unit

__version__ = "0.1.0"

__all__ = [
    "A_MIN", "BUILTIN_TCONORMS", "BUILTIN_TNORMS", "Connective", "Role",
    "S_D", "S_L", "S_M", "S_P", "T_D", "T_L", "T_M", "T_P",
    "construct_nullnorm", "construct_uninorm_max", "construct_uninorm_min",
    "dualize", "parse_operator", "power_iterate",
    "BudgetExceededError", "DegenerateParameterError", "DomainError",
    "FuzznormError", "NotALatticeError", "InputFormatError", "TotalityError",
    "UnboundedPosetError", "UnknownOperatorError",
    "FinitePoints", "GridDomain", "PropertyReport", "SearchBudget", "Verdict",
    "Witness", "dumps", "ONE", "ZERO", "unit",
]
