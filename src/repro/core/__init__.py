"""The paper's contribution: the Filtering-Overwritten-Label method.

* :func:`~repro.core.fol1.fol1` — FOL1, one rewritten item per unit
  process (§3.2).
* :func:`~repro.core.fol_star.fol_star` — FOL*, L rewritten items per
  unit process with scalar-tail deadlock avoidance (§3.3).
* :mod:`~repro.core.round` — the one filtering round both loop, and its
  once-per-batch forms ``fol_round``/``tuple_round``.
* :class:`~repro.core.decomposition.Decomposition` /
  :class:`~repro.core.fol_star.TupleDecomposition` — validated outputs.
* :mod:`~repro.core.labels` — label strategies (§3.2 step 0).
* :mod:`~repro.core.theorems` — executable Theorems 1–6.
"""

from .decomposition import Decomposition, max_multiplicity, reference_decomposition
from .fol1 import fol1, fol1_sets_of_addresses
from .fol_star import (
    TupleDecomposition,
    fol_star,
    fol_star_lower_bound,
    internal_duplicate_mask,
)
from .isa_fol import build_fol1_program, isa_fol1
from .ordered import (
    check_program_order,
    fol1_ordered,
    ordered_rmw_add,
    ordered_scatter,
)
from .labels import (
    displacement_labels,
    index_labels,
    key_labels,
    min_label_bits,
    negated_index_labels,
    tuple_labels,
    validate_unique,
)

__all__ = [
    "Decomposition",
    "TupleDecomposition",
    "fol1",
    "fol1_sets_of_addresses",
    "isa_fol1",
    "build_fol1_program",
    "fol_star",
    "fol_star_lower_bound",
    "internal_duplicate_mask",
    "max_multiplicity",
    "reference_decomposition",
    "fol1_ordered",
    "check_program_order",
    "ordered_scatter",
    "ordered_rmw_add",
    "index_labels",
    "negated_index_labels",
    "displacement_labels",
    "key_labels",
    "tuple_labels",
    "validate_unique",
    "min_label_bits",
]
