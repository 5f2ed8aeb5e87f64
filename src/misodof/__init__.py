"""Two-user MISO broadcast channel simulator.

DoF regions and ergodic achievable rates under perfect delayed plus
imperfect current transmitter CSI, with Monte Carlo evaluation of the exact
rate formulas and quadrature oracles for the analytic ingredients.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy: an idle BLAS pool spins

__version__ = "0.1.0"

from .channel import ChannelBatch, CsitConfig, sample_batch
from .mc import McConfig, McEstimate, NonFiniteSampleError, estimate
from .oracles import (
    BoundsCheckReport,
    conditional_log_bounds_check,
    exp_log_mean,
    rotation_mean_log_closed_form,
    rotation_mean_log_quadrature,
)
from .rates import (
    RateResult,
    quantization_rate,
    rate_scheme,
)
from .regions import (
    DofRegion,
    Scheme,
    dof_imperfect_delayed,
    dof_scheme,
    region_common_message,
    region_imperfect_delayed,
    region_main,
)
