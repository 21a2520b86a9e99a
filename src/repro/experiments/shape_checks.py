"""Shape checks: do the regenerated figures reproduce the paper's findings?

Each figure declares its checks in its block of
:mod:`repro.experiments.figures`; this is the lookup by figure number.
"""

from repro.experiments.figures import FIGURES

#: ``ALL_CHECKS[number](result, **options)`` -> ``{check name: passed}``.
ALL_CHECKS = {number: figure.check for number, figure in FIGURES.items()}
