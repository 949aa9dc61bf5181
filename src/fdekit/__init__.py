"""fdekit: a workbench for Belnap-Dunn logic and its expansions."""

from .bd import (
    NamedConnective,
    bd_matrix,
    count_strongly_regular,
    expand,
    heart,
    is_strongly_regular,
    named,
    sr_decode,
    sr_encode,
)
from .definability import (
    DefinabilityVerdict,
    bd_preservation_criterion,
    definable,
    interdefinable,
    logic_definable_in,
    synonymity_via_consequence,
    synonymous,
)
from .matrix import (
    Matrix,
    TermFunction,
    consequence,
    consequence_countermodel,
    equivalence_countermodel,
    equivalent,
    evaluate,
    is_expansion,
    matrix_from_json,
    matrix_to_json,
    restrict,
    simplicity,
    term_functions,
)
from .laws import (
    CLASSICAL_ONLY_LAWS,
    FAILING_CLASSICAL_LAWS,
    HOLDING_CLASSICAL_LAWS,
    Law,
    TABLE2_LAWS,
    filter_strongly_regular,
    holds,
)
from .proof import (
    BD,
    CL,
    Derivation,
    Prover,
    Sequent,
    check,
    derived_rule_check,
    prove,
)
from .syntax import (
    Formula,
    Signature,
    parse,
    print_formula,
    subformulas,
    substitute,
    variables,
)

__all__ = [name for name in dir() if not name.startswith("_")]
