"""Exact algebraic entanglement invariants and class tables.

Compute flattening-kernel dimensions and the triple-intersection kernel
dimension of pure states over exact fields (rationals, GF(p), Gaussian
rationals), and classify states of shape (d1,d2), (2,2,d), or (2,3,d)
against the built-in class tables.
"""

from .fields import (
    GF,
    QQ,
    QQI,
    Field,
    FieldMismatchError,
    GaussianRational,
    GaussianRationalField,
    GFElement,
    PrimeField,
    RationalField,
    field_from_descriptor,
)
from .linalg import ExactMatrix, InternalConsistencyError
from .tensors import (
    ArityError,
    BasisError,
    Shape,
    ShapeError,
    Tensor,
    apply_local,
    flatten,
    from_terms,
    random_invertible,
    random_tensor,
)
from .invariants import (
    InvariantSignature,
    general_form_decomposition,
    kernel_dim,
    signature,
    triple_constraint_matrix,
    triple_kernel_dim,
)
from .tables import (
    ClassEntry,
    ClassificationGapError,
    ClassTable,
    LabelValidityError,
    UnsupportedShapeError,
    classify,
    classify_full,
    representative,
    table_for,
)
from .documents import DocumentError, document_dict, emit_document, parse_document
from .explain import explain_three_qubit, render_explain_text
from .suites import run_suite

__version__ = "0.1.0"

__all__ = [
    "GF", "QQ", "QQI", "Field", "FieldMismatchError", "GaussianRational",
    "GaussianRationalField", "GFElement", "PrimeField", "RationalField",
    "field_from_descriptor",
    "ExactMatrix", "InternalConsistencyError",
    "ArityError", "BasisError", "Shape", "ShapeError", "Tensor",
    "apply_local", "flatten", "from_terms",
    "random_invertible", "random_tensor",
    "InvariantSignature", "general_form_decomposition", "kernel_dim",
    "signature", "triple_constraint_matrix", "triple_kernel_dim",
    "ClassEntry", "ClassificationGapError", "ClassTable", "LabelValidityError",
    "UnsupportedShapeError", "classify", "classify_full", "representative",
    "table_for",
    "DocumentError", "document_dict", "emit_document", "parse_document",
    "explain_three_qubit", "render_explain_text",
    "run_suite",
    "__version__",
]
