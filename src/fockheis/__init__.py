"""fockheis: exact partition calculus, symmetric-group characters, symmetric
functions, and graded Heisenberg raising operators on Fock space.

All arithmetic is exact (integers and fractions); there is no floating
point anywhere in the package.
"""

from .partitions import (
    Partition,
    content_sum,
    coprime_decompose,
    d_stat,
    is_coprime,
    partitions_of,
    partitions_upto,
    partwise_add,
    transpose,
)
from .schar import (
    VirtualRep,
    character_table,
    character_value,
    class_size,
    exterior_power_perm,
    induction_product,
    kronecker_product,
)
from .symfunc import (
    SymFunc,
    characteristic,
    plethysm_pb,
    power_sum_to_schur,
    schur_multiply,
    schur_to_power_sums,
)
from .fock import FockVector, LaurentScalar, b_op, b_tau, heis_modp, heis_neg
from .cherednik import (
    BlockId,
    HilbertSeries,
    ParamLambda,
    SimpleLabel,
    block_of,
    block_shift,
    character_pipeline,
    eu_equivalent,
    euler_relation_scalar,
    lowest_eu_eigenvalue,
    p_stability_interval,
    possible_supports,
    preferred_label,
    sigma_forbidden,
    simple_image_neg,
    simple_image_pos,
    support_dim,
    verma_hilbert,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "content_sum",
    "d_stat",
    "transpose",
    "partwise_add",
    "is_coprime",
    "coprime_decompose",
    "partitions_of",
    "partitions_upto",
    "VirtualRep",
    "character_value",
    "character_table",
    "class_size",
    "induction_product",
    "kronecker_product",
    "exterior_power_perm",
    "SymFunc",
    "schur_multiply",
    "power_sum_to_schur",
    "schur_to_power_sums",
    "plethysm_pb",
    "characteristic",
    "FockVector",
    "LaurentScalar",
    "b_op",
    "b_tau",
    "heis_modp",
    "heis_neg",
    "ParamLambda",
    "SimpleLabel",
    "BlockId",
    "HilbertSeries",
    "sigma_forbidden",
    "lowest_eu_eigenvalue",
    "preferred_label",
    "euler_relation_scalar",
    "eu_equivalent",
    "block_shift",
    "block_of",
    "simple_image_pos",
    "simple_image_neg",
    "support_dim",
    "possible_supports",
    "p_stability_interval",
    "verma_hilbert",
    "character_pipeline",
]
