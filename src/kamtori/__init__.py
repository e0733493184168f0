"""kamtori: quasi-periodic invariant tori for conformally symplectic maps.

Spectral Newton solver with automatic reducibility, Lindstedt jets in the
dissipation parameter, and atlases of the complex analyticity domain with its
excluded resonance balls.
"""

from .diophantine import (GOLDEN_MEAN, GoodSetParams, NuEstimate, lambda_in_good_set,
                          nu_lambda, nu_omega)
from .embedding import TorusEmbedding
from .errors import (ConfigError, Diverged, DivisorTooSmall, FrameSingular,
                     KamtoriError, NoConvergence, NonDegeneracyFailure,
                     NormalizationDiverged)
from .fourier import FourierSeries, from_grid, theta_grid, to_grid
from .maps import DissipativeStandardMap, symplectic_matrix, verify_conformal
from .cohomology import CohomologySolution, solve_twisted, tame_bound
from .newton import (KamSolution, ReducibilityFrame, invariance_residual,
                     lagrangian_defect, newton_step, normalize_embedding,
                     reducibility_frame, run_newton)

__version__ = "0.1.0"
