"""nambu-dyn: hidden-Nambu dynamics of quantum expectation values.

Extended phase spaces of expectation values evolve under Nambu brackets
(Jacobian determinants) driven by a closed Hamiltonian F and induced
constraints G_c; classical Hamiltonian flow and grid-based quantum
propagation provide the reference dynamics.
"""

# Each library module's __all__ states its public names; native and cli stay modules.
# Importing a submodule binds its name here, so ``poly`` below is the module.
from .poly import *
from .state import *
from .brackets import *
from .multiplets import *
from .closure import *
from .dynamics import *
from .quantum import *
from .scenarios import *

__all__ = [*poly.__all__, *state.__all__, *brackets.__all__, *multiplets.__all__,
           *closure.__all__, *dynamics.__all__, *quantum.__all__, *scenarios.__all__]

__version__ = "0.1.0"
