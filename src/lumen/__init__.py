"""Light bulb problem solvers built on low-rank bilinear tensors.

The package pairs an exact tensor/decomposition calculus (Kronecker products,
reflections, Kronecker-power application) with planted-correlation solvers that
score all bucket pairs through one tensor application per round, plus the
efficacy machinery that predicts which tensors detect at which exponents.
"""

from .core import (Decomposition, MultiplyCounter, Rank1Term, Tensor,
                   TensorShape, apply_direct, apply_power,
                   decomposition_from_text, decomposition_to_text,
                   kron_decomposition, kronecker, reflect,
                   reflect_decomposition, tensor_of_decomposition)
from .efficacy import (EfficacyTable, StochasticPair, design_q_matrices,
                       eff_entry, eff_table, effq_entry, exponent_bound,
                       gamma, omega_rho_t2112, optimize_gamma, p_eff,
                       t2112_optimal_a)
from .instances import (Instance, expand_vectors, gen_planted, gen_planted_p,
                        map_to_pm1, check_vn, read_instance, write_instance)
from .aggregation import aggregate_fast, aggregate_naive
from .solver import (DetectionReport, SolverPlan, detect, plan_lsh,
                     plan_uniform, skew_metrics, solve_lsh, solve_uniform,
                     verify_candidates)
from .harness import lemma_checks
from . import zoo

__version__ = "0.1.0"
