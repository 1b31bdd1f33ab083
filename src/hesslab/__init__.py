"""hesslab: exact Gauss reduction theory for SL(n,Z) matrices.

Reduction to perfect Hessenberg form, Markoff-Davenport minimization via
Klein-Voronoi continued fractions, 2D period invariants, and family
classification atlases. All arithmetic is exact.
"""

from .exact import (
    ExactError,
    IntMatrix,
    IntPoly,
    IntVector,
    char_poly,
    det,
    discriminant,
    factor_small,
    integer_distance,
    integer_volume,
    parse_matrix,
    parse_vector,
)
from .hessenberg import (
    FamilyPoint,
    HessType,
    ReductionError,
    family_member,
    hessenberg_complexity,
    is_perfect,
    last_column_from,
    matrix_type,
    reduce_to_perfect,
)
from .mdchar import MDForm3, md_characteristic, md_form3
from .numberfield import NumberField
from .sail3 import (
    Inconclusive,
    SailData,
    compute_sail,
    verify_dirichlet_element,
)
from .reducedness import (
    Bounded,
    Fingerprint,
    ReducedVerdict,
    Sail,
    fingerprint,
    is_reduced,
    minimize_md_bounded,
)
from .gauss2 import Period, Sl2Class, classify_sl2, periods_equal, sail_period
from .atlas import (
    GridCell,
    ParabolaParams,
    classify_family_4d,
    classify_grid,
    discriminant_at,
    lambda_membership,
    normalize_to_frobenius,
    parabola_params,
    ray_scan,
    render_grid,
)

__version__ = "0.1.0"
