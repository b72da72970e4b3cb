"""Block combinatorics for cyclotomic Hecke algebras at small rank.

Multipartitions and their bead displays, block invariants (residue
counts, hubs, weights), core-block reduction through weight-lowering
bead exchanges, the K invariants, runner swaps with their graded
branching degrees, and exhaustive verification sweeps that certify
every implemented law over desk-scale grids.
"""

from .abacus import (
    AbacusDisplay,
    BetaSet,
    Multicore,
    as_multicore,
    beta_set,
    gamma,
    gamma_diff,
    has_forbidden_config,
    parse_abacus,
    partition_of,
    phi,
    phi_beta_set,
    render,
    s_move,
    to_multicore,
)
from .blocks import (
    Block,
    BlockDescriptor,
    CoreBlockResult,
    ScopesReport,
    SMoveStep,
    base_tuples,
    block_containing,
    block_of,
    core_block_of,
    d_min,
    delta_ij,
    enumerate_blocks,
    hub,
    is_core_block,
    k_value,
    level_hub,
    residue_counts,
    same_block,
    scopes_condition,
    weight,
    witness_offsets,
)
from .branching import (
    LaurentPolynomial,
    branching_polynomial,
    degree_spectrum,
    inversions,
    mahonian,
    order_degree,
)
from .caps import Caps, default_caps
from .errors import CapExceeded, InputError, LemmaViolation
from .multipartition import (
    Multicharge,
    Node,
    addable_nodes,
    add_node,
    as_multipartition,
    as_partition,
    dominates,
    lex_cmp,
    multipartition_from_json,
    multipartition_to_json,
    multipartitions_of,
    node_above,
    nodes,
    partitions_of,
    removable_nodes,
    remove_node,
    residue,
    residue_multiset,
    size,
)
from .scopes import (
    ScopesCertificate,
    certificate,
    good_nodes,
    is_kleshchev,
    scopes_pairing,
)
from .verify import (
    DEFAULT_GRID,
    LemmaResult,
    SweepGrid,
    format_results,
    results_to_json,
    run_all,
)

__version__ = "0.1.0"
