"""smlc: transformations and oracles for regular set-multilinear circuits."""

from .circuit import (
    Add,
    Bouquet,
    Circuit,
    CircuitError,
    ConstLeaf,
    Interval,
    Mul,
    RegularCircuit,
    VarLeaf,
    bouquet_gate_count,
    gate_count,
    infer_order,
    regular,
    stats,
    validate,
)
from .generators import (
    det_bouquet,
    det_regular_circuit,
    dp_det_bouquet,
    random_regular_circuit,
)
from .passes import (
    Direction,
    MonotoneResult,
    compose,
    drop_last_index,
    merge_summands,
    monotone_subsequence,
    project,
    reverse,
)
from .pipeline import (
    Transcript,
    VerificationFailed,
    normalize_first,
    reduce_to_single,
)
from .poly import (
    PRIME,
    SparsePoly,
    equiv_random,
    eval_circuit,
    eval_points,
    expand,
    expand_bouquet,
    reference_det,
    reference_perm,
    sign_of_permutation,
)

__version__ = "0.1.0"
