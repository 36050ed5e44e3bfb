"""Kernel and command-line tool for weak and strictly associative
infinity-categories: pasting diagrams, Batanin trees, insertion,
normalisation, and decidable typechecking."""

from .errors import CattError
from .insertion import (
    InsertionProblem,
    InsertionResult,
    insert_ctx,
    type_linear_height,
)
from .pasting import unbiased_type
from .reduction import def_eq, normalize
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
    dim_term,
    dim_type,
    identity_sub,
    support,
    term_boundary,
    type_boundary,
)
from .trees import (
    BataninTree,
    ctx_to_tree,
    linear_height,
    tree_to_bracket,
    tree_to_ctx,
)
from .typecheck import Mode, Session, TypingReport

__version__ = "0.1.0"
