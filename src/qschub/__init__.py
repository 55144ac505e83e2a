"""Exact Hecke-algebra actions on the coinvariant algebra, over Z[q].

Two deformations of the variable-permutation action of the symmetric group on
polynomials: a q-commutator family built from divided differences, and a
monomial-sorting family with transition weight q.  The q-commutator action
preserves the ideal generated by positive-degree symmetric functions and acts
on each graded piece of the quotient in the Schubert basis.  The sorting
action does not preserve that ideal; on the quotient only its compressed word
images and its traces derived from the full polynomial components are used.
Both share a graded character given by a closed combinatorial weight sum.
Everything is computed exactly in Z[q].
"""

from .polyring import (
    MPoly,
    ONE_MINUS_Q,
    Q,
    QPoly,
    is_i_symmetric,
)
from .perm import (
    canonical_reduced_word,
    coset_weight,
    cycle_type,
    knuth_classes,
    length,
    partition_word,
    partitions_of,
    perms_of_length,
)
from .operators import (
    InvariantViolation,
    a_minus_r_factor,
    divided_difference,
)
from .schubert import (
    CoinvariantVector,
    SchubertTable,
    build_schubert_table,
    expand_homogeneous,
    monk_products,
    x_action_on_schubert,
)
from .rep import (
    CharacterValue,
    RepMatrix,
    basis_element_matrix,
    bc_scan,
    descent_column_formula,
    generator_matrix,
    graded_character,
    weight_character,
    word_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
