"""Profinite genus of torus-bundle groups, computed through quadratic form classes."""

from .conjugacy import (
    BruteSearchResult,
    ConjugacyWitness,
    ModularWitness,
    ProfiniteEvidence,
    are_conjugate_gl2z,
    are_conjugate_mod_m,
    brute_force_conjugator,
    canonical_form,
    class_key,
    modular_table,
)
from .errors import (
    DegenerateSpectrum,
    DiscriminantMismatch,
    ImprimitiveForm,
    NotUnimodular,
    ParseError,
    SolgenusError,
)
from .forms import (
    BQForm,
    EquivMode,
    FormClassSet,
    class_count,
    class_set,
    forms_equivalent,
)
from .genus import (
    GenusReport,
    TheoremBranch,
    canonical,
    genus,
    presentation,
)
from .ideals import LMSet, companion, lm_representatives, multiplication_matrix
from .matrices import (
    CharPoly,
    GeometryLabel,
    IntMat2,
    SpectrumClass,
    char_poly,
    format_matrix,
    geometry,
    is_hyperbolic,
    matrix_order,
    parse_matrix,
    spectrum_class,
)
from .orders import (
    OrderDisc,
    disc_from_int,
    factor,
    order_disc,
    square_free_decompose,
)

__version__ = "0.1.0"
