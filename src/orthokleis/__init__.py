"""Computational toolkit for lattice-bordered orthogonal modular machinery.

Subpackages cover: exact lattice arithmetic, the orthogonal group of the
twice-bordered form and its tube domain, majorants, the Epstein-form
Eisenstein series over isotropic plane classes, Siegel theta series, a
symbolic exp-polynomial algebra with the Maass/Shimura operator suite, the
completed-series gamma and zeta factors, and the exact Jacobi group laws.
"""

from .errors import (
    BudgetExceeded,
    ConvergenceGuard,
    DomainExit,
    IsotropicReflectionVector,
    NonIntegralEmbed,
    NotEven,
    NotPositiveDefinite,
    NotSymmetric,
    OrthokleisError,
    PoleAt,
    QuadratureBudget,
    RankDeficient,
    SingularDenominator,
    TransportFailure,
    XDependentInput,
)
from .lattice import (
    CATALOG,
    BorderedForms,
    GramLattice,
    bordered_forms,
    find_norm2_vector,
    is_primitive,
    level,
    load_gram,
    short_vectors,
    so_order_bruteforce,
    validate_gram,
    vectors_of_norm,
)
from .orthogroup import (
    OrthElement,
    Space,
    TubePoint,
    act,
    automorphy,
    builders,
    inverse_closed_form,
    random_point,
    random_word,
    space_for,
)
from .majorant import (
    base_majorant,
    klingen_quotient,
    majorant_at,
    transport_to,
)
from .eisenstein import (
    ClassList,
    IsotropicClass,
    class_value,
    eisenstein_report,
    eisenstein_truncated,
    enumerate_isotropic_classes,
    hnf_det_class_count,
    imprimitive_factorization_check,
    sigma1,
    transport_classes,
)
from .theta import (
    ThetaQuery,
    big_theta,
    tail_bound,
    theta_report,
    theta_truncated,
)
from .exppoly import ExpPoly, PiPoly
from .siegelops import (
    SiegelPoint,
    SpElement,
    maass_delta,
    one_dim_annihilation,
    shimura_power,
    siegel_eisenstein_truncated,
    sp2_act,
    theta_term_symbol,
)
from .assembly import (
    CompletedSeriesFactors,
    completed_dirichlet,
    completed_e8_eisenstein,
    gamma_s,
    p2_integral_check,
    xi,
    zeta,
)
from .jacobi import (
    HeisenbergElement,
    JacobiElement,
    jacobi_action,
    jacobi_embed,
    jacobi_mul,
    slash,
)

__version__ = "0.1.0"
