"""Block combinatorics for cyclotomic Hecke algebras at small rank.

Multipartitions and their bead displays, block invariants (residue
counts, hubs, weights), core-block reduction through weight-lowering
bead exchanges, the K invariants, runner swaps with their graded
branching degrees, and exhaustive verification sweeps that certify
every implemented law over desk-scale grids.

Each module's ``__all__`` is the one declaration of its public names;
the package republishes them unchanged.
"""

from .abacus import *
from .blocks import *
from .branching import *
from .caps import *
from .errors import *
from .multipartition import *
from .scopes import *
from .verify import *

__version__ = "0.1.0"
