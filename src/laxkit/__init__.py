"""laxkit: exact GL(n) Lax matrices over difference-operator algebras.

The kernel (`ratfun`) does exact rational-function arithmetic with
factored denominators; `algebra` holds the normal-ordered
difference-operator algebras; `coweight` the divisor combinatorics;
`lax_rational` / `lax_trig` build the matrices (`lax_rational` holds
the shared pipeline, the quantum determinant of both modes included);
`rtt` verifies the exchange relations, Yang-Baxter identities and
coproducts; `gelfand_tsetlin` the pattern-formula comparison; `cli` the
batch front door and `suite` the acceptance battery.
"""

from .algebra import (
    AlgebraElement,
    AlgebraSignature,
    GammaGauge,
    MonomialGauge,
    ShiftMonomial,
    embed,
    mat_equal,
    tensor,
)
from .coweight import (
    Coweight,
    Divisor,
    PseudoYoungDiagram,
    convert_basis,
    divisor_from_young,
    fundamental_coweight,
    simple_coroot,
)
from .gelfand_tsetlin import gauge_and_compare, gt_images, layout
from .lax_rational import (
    GaussFactors,
    LaxMatrix,
    build_gauss_factors,
    build_lax,
    build_linear_lax,
    commuting_hamiltonians_n2,
    fuse,
    normalize_and_check_polynomial,
    normalized_limit,
    pipeline,
    qdet_image,
)
from .lax_trig import (
    build_lax_trig,
    build_linear_lax_trig,
    degenerate_to_rational,
    limits_trig,
    normalize_and_check_polynomial_trig,
    split_finite_rtt,
)
from .ratfun import (
    EPS,
    Poly,
    RatFun,
    V,
    W,
    Z,
    p_var,
    wh_var,
    x_var,
)
from .rtt import (
    check_yang_baxter,
    coproduct,
    series_gauss_decompose,
    verify_coproduct_generators,
    verify_finite_rtt,
    verify_rtt,
)

__version__ = "0.1.0"
