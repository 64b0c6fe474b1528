"""Random hyperplane sections of convex bodies.

Sampling of isotropic uniformly random (IUR) sections in 2D and 3D,
kernel density approximation of the section volume law, and
nonparametric unfolding of particle size distributions from observed
section profiles.
"""

import os

# One BLAS thread unless the user sets a count (read when numpy is first
# imported): more only spin on EM's small products and change their rounding.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .density import (
    DensityEstimate,
    StepCDF,
    classical_kde,
    default_grid,
    empirical_cdf,
    estimate_root_density,
    reflection_kde,
    root_transform,
    sheather_jones_bandwidth,
    untransform_density,
)
from .errors import SectionLabError
from .geometry import (
    ConvexBody,
    Hyperplane,
    build_polytope,
    builtin_body,
    mean_width,
    rotate_body,
    scale_body,
    section_volume,
    section_volume_by_clipping,
    section_volumes,
    support_interval,
    translate_body,
    volume,
)
from .oracles import ball_section_cdf, square_chord_density
from .rng import RngStream
from .sampling import (
    SectionSample,
    acceptance_estimate,
    enclosing_radius,
    sample_directions,
    sample_iur_sections,
)
from .stereology import (
    Exponential,
    Gamma,
    PointMass,
    ReferenceDensity,
    UnfoldResult,
    length_biased,
    log_likelihood,
    npmle_em,
    sample_profile_sizes,
    unbias,
)

__version__ = "0.1.0"
