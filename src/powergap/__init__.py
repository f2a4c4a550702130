"""Power-gap laboratory for complex conductivity with a chiral inclusion."""

__version__ = "0.1.0"

from .coefficients import (
    BackgroundTensor,
    InclusionLaw,
    JumpCase,
    MatrixField,
    check_ellipticity,
    check_epsilon_closeness,
    check_jump_condition,
    estimate_lipschitz,
    validate_admissibility,
)
from .geometry import (
    Circle,
    CurveInterior,
    Ellipse,
    FlatteningMap,
    RectRegion,
    RegionTriple,
    ScaledRegion,
    Scene,
    WeightParams,
    build_regions,
    dilate,
    erode,
    flattening_map,
    grid_integrate,
    max_region_radius,
    region_area,
    vitali_cover,
    z_value,
)
from .mesh import Mesh, build_mesh
from .solver import (
    BackgroundOperator,
    export_solution_csv,
    NeumannData,
    Solution,
    flux_balance,
    flux_jump_norm,
    fourier_data,
    solve_perturbed,
)
