"""Every filteredness and cofinality report the suite obtains has its
witnesses re-checked.

Before any test module is collected, ``check_sigma_filtered`` and
``check_sigma_cofinal`` are replaced, in every loaded ``sigmacat``
module that binds them, by wrappers that return the same report after
``witness_reference`` has re-checked each witness.  The scan's callers
inside the package (``check_sigma_cofiltered``, ``cofinal_via_ff``,
``flatness``, the CLI) look the names up at call time, so their reports
are re-checked too.  The wrappers tick nothing.
"""

import sys

import sigmacat
import sigmacat.cli  # noqa: F401  (binds the checkers by name)
from sigmacat import filteredness
from witness_reference import check_cofinal_witnesses, check_filtered_witnesses

_filtered, _cofinal = filteredness.check_sigma_filtered, filteredness.check_sigma_cofinal


def check_sigma_filtered(m, meter=None):
    rep = _filtered(m, meter)
    check_filtered_witnesses(m, rep)
    return rep


def check_sigma_cofinal(T, sigma, sigma_prime, meter=None):
    rep = _cofinal(T, sigma, sigma_prime, meter)
    check_cofinal_witnesses(T, sigma, sigma_prime, rep)
    return rep


for _module in [m for name, m in sys.modules.items()
                if name == sigmacat.__name__ or name.startswith("sigmacat.")]:
    for _original, _checked in ((_filtered, check_sigma_filtered),
                                (_cofinal, check_sigma_cofinal)):
        if getattr(_module, _original.__name__, None) is _original:
            setattr(_module, _original.__name__, _checked)
