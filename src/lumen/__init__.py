"""Light bulb problem solvers built on low-rank bilinear tensors.

The package pairs an exact tensor/decomposition calculus (Kronecker products,
reflections, Kronecker-power application) with planted-correlation solvers that
score all bucket pairs through one tensor application per round, plus the
efficacy machinery that predicts which tensors detect at which exponents.
Importing the package loads the solver and the zoo, and with them core,
efficacy and instances; the harness, the CLI and the aggregation reference
load when they are imported, and the masked_matmul kernel (masked) on the
first apply of a detector that runs it.
"""

from . import solver, zoo

__version__ = "0.1.0"
