"""Finite 2-categories, relative (sigma) limits, and flat diagrams.

A desk-scale kernel: every category, 2-category, and diagram is given by
total tables, every law is validated by exhaustive loops, Hom categories
of transformations are enumerated, weighted σ-limits are read as conical
ones over the weight's elements, which are read off the weight's tables
and never assembled, conical relative colimits are built by localization
through coset enumeration, with a cap on the length of a coset's
defining word, and flatness of a Cat-valued diagram is decided through
filteredness of its 2-category of elements.  The shapes that generate
the finite bilimits are catalogued in ``shapes``.  Each question has one
implementation here, for strict and pseudo input alike: every weighted
limit, bilimit and Yoneda check runs on the cone kernel.  The assembled
constructions that the kernels replaced, and what only the tests call,
are kept with the tests, as references (``tests/test_imports.py`` lists
the few uncalled functions that stay, each with its reason).  There are
two exceptions.  The callers that need ``Transformation`` objects still
run on ``hom_eps``.  ``hom_eps``, ``cones_sigma``, ``comparison_functor``,
``gamma_dual``,
``find_isomorphism`` and ``functor_category`` stay here because the
benchmark (``bench/ladders.py``, ``bench/spans.py``) calls or wraps
them; ``cones_sigma`` stays only as that name, its cones being the cone
kernel's, read under Cat(Q-, E).
"""

from .errors import (CertificateFailure, Inconsistency, ParseError,
                     PreconditionFailed, SizeLimitExceeded, UndecidedAtCap,
                     ValidationError)
from .config import Meter, DEFAULT_BUDGET, DEFAULT_CAP
from .fincat import (FinCat, Functor, NatTransf, ValidationReport,
                     EquivalenceReport, connected_components, find_isomorphism,
                     functor_category, is_equivalence, mk_fincat,
                     product_category, validate_category)
from .presented import PresentedCategory, localize
from .two_cat import (Fin2Cat, Marked2Cat, WideSub, co_dual, mk_fin2cat,
                      op_dual, two_cat_from_cat, validate_2category,
                      wide_all, wide_from, wide_identities)
from .transforms import (CatDiagram, Flavor, LAX, Modification, PSEUDO, STRICT,
                         Transformation, TwoFunctor, check_modification,
                         check_transformation, constant_diagram, hom_eps,
                         sigma_flavor, validate_diagram)
from .elements import (DualPi0, ElementsResult, cart_sigma, dual_pi0,
                       elements_of, elements_of_pseudo, gamma_dual,
                       lax_dense_transport, lax_pullback_factor, t_eta, t_h)
from .colimits import (BaseCone, ColimitResult, SigmaCone, bilimit_cat,
                       coend_eps, commutation_check, comparison_functor,
                       conical_sigma_colimit, preserves_bilimit,
                       weighted_limit_cat, weighted_sigma_colimit,
                       weighted_sigma_limit)
from .filteredness import (FilterednessReport, check_sigma_cofiltered,
                           check_sigma_cofinal, check_sigma_filtered,
                           cofinal_via_ff)
from .flatness import (CanonicalExpression, FlatnessVerdict,
                       canonical_expression, check_flat, check_flat_pseudo,
                       check_left_exact, exact_implies_cofiltered_check,
                       generate_bilimit_cones, representable, strictify,
                       yoneda_check)
