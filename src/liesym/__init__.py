"""Symbolic toolkit for Lie symmetry analysis of differential equations.

Exact-rational expression trees over jet space, prolongation of vector
fields, determining-equation generation and solution, Euler-Lagrange and
Noether machinery, conservation-law verification, and Buckingham Pi
dimensional analysis.
"""

from .errors import (
    ArityError,
    DegenerateDenominator,
    DegenerateExpression,
    EvaluationError,
    InvalidSample,
    LiesymError,
    NotASymmetry,
    NotPolynomial,
    NotSolvedForm,
    OrderCapExceeded,
    OrderError,
    ParseError,
    SimplificationIncomplete,
    UnknownSymbol,
)
from .expr import (
    Add,
    Const,
    Context,
    Expr,
    Func,
    Jet,
    Mul,
    Param,
    Pow,
    UFunc,
    Var,
    add,
    atoms_of,
    collect,
    contains,
    diff,
    div,
    evaluate,
    expand,
    func,
    is_zero,
    jet_order,
    jets_of,
    mul,
    neg,
    normalize,
    partials,
    pow_,
    sub,
    substitute,
    substitute_functions,
)
from .jet import (
    Characteristic,
    ProlongedVectorField,
    VectorField,
    apply_prolonged,
    characteristic_of,
    evolutionary_prolong,
    lie_bracket,
    prolong,
    prolong_recursive,
    total_derivative,
    total_derivative_multi,
    total_divergence,
)
from .ratla import RatMatrix, kernel_basis, rank, rref
from .detsys import (
    Ansatz,
    DeterminingSystem,
    DiffSystem,
    check_symmetry,
    determining_equations,
    rank_probe,
    reduce_mod_system,
    solve_determining,
    symmetry_defect,
    verify_lie_closure,
)
from .varcalc import (
    ConservedCurrent,
    Lagrangian,
    divergence_symmetry_check,
    euler_lagrange,
    euler_operator,
    noether_current_first_order,
    variational_symmetry_defect,
    verify_noether_identity,
)
from .claws import (
    is_conservation_law,
    is_null_divergence,
    verify_characteristic_form,
)
from .invariants import (
    characteristic_system,
    differential_invariant_check,
    invariance_defect,
    next_invariant,
)
from .buckpi import (
    DimensionalModel,
    PiBasis,
    check_dimensionless,
    pi_basis,
    power_products,
)
from .parse import Problem, format_expr, parse_expr, parse_problem

__version__ = "0.1.0"
