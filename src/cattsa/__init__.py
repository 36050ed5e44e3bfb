"""Kernel and command-line tool for weak and strictly associative
infinity-categories: pasting diagrams, Batanin trees, insertion,
normalisation, and decidable typechecking."""

from .errors import CattError
from .insertion import (
    InsertionProblem,
    InsertionResult,
    insert_ctx,
    insert_sub,
    insert_tree,
    type_linear_height,
)
from .pasting import (
    boundary_ctx,
    is_disc_ctx,
    is_pasting,
    is_unbiased,
    locally_maximal,
    unbiased_term,
    unbiased_type,
)
from .reduction import Redex, def_eq, normalize
from .syntax import (
    NEG,
    POS,
    STAR,
    Arr,
    Coh,
    Context,
    Star,
    Substitution,
    Term,
    Type,
    Var,
    alpha_eq,
    apply_sub,
    compose_sub,
    dim_ctx,
    dim_term,
    dim_type,
    identity_sub,
    support,
    term_boundary,
    type_boundary,
)
from .trees import (
    BataninTree,
    branching_height,
    branching_path,
    bracket_to_tree,
    ctx_to_tree,
    linear_height,
    tree_to_bracket,
    tree_to_ctx,
)
from .typecheck import (
    Mode,
    TypingReport,
    check_ctx,
    check_sub,
    check_term,
    check_type,
    infer_term,
)

__version__ = "0.1.0"
