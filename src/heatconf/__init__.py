"""Heat-kernel embeddings with conformal defect control.

Builds truncated normalized heat-kernel embeddings of compact testbed
manifolds from their Laplace spectra, measures and corrects the conformal
defect of the pullback metric, and perturbs almost-conformal embeddings to
exactly conformal immersions by a contraction fixed point.
"""

from .analysis import OrderFit, fit_order
from .embedding import (CorrectionSpec, EmbeddingMap, PullbackReport, TruncationPolicy,
                        build_embedding, corrected_model, defect_scan, h1_solve,
                        tail_bound_check)
from .errors import (ConfigError, ConvergenceError, DomainError, HeatconfError,
                     PreconditionError, SpectrumError)
from .geometry import (ManifoldModel, MetricData, SampleGrid, conformal_defect,
                       metric_on_grid, sample_grid)
from .jets import (PointwiseRightInverse, block_inverse, trace_free_rows, xi_inverse,
                   xi_matrix)
from .perturb import (ConformalResult, ConformalSolver, FieldRq, IterationState,
                      SpectralGrid, assemble_C, fixed_point_solve)
from .spectrum import (EigenPair, SpectrumProvider, analytic_spectrum, enumerate_eigenpairs,
                       save_spectrum)

__version__ = "0.1.0"
