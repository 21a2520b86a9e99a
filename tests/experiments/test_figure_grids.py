"""The figure grids are pinned: every campaign a figure declares, point key by point key.

``data/figures.json`` records, for each figure at its quick and full
defaults and under the benchmark suite's overrides, the campaign name, and
per series its label, params, x values and ordered point keys.  A point key is the result-cache key, so an unchanged file means
existing caches stay hot.  Re-capture it (only for a deliberate grid change)
by deleting the file and rerunning this test (``tests/goldens.py``).
"""

import os

from repro.experiments import figure4, figure5, figure6, figure7, figure8
from tests import goldens

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "figures.json")

CASES = [
    (name, module, grid)
    for name, module in (
        ("figure4", figure4),
        ("figure5", figure5),
        ("figure6", figure6),
        ("figure7", figure7),
        ("figure8", figure8),
    )
    for grid in ({"quick": True}, {"quick": False})
] + [
    ("figure6", figure6, {"quick": True, "tmr_values": (30.0, 100.0, 1000.0, 10000.0)}),
    ("figure8", figure8, {"quick": True, "num_runs": 2}),
    ("figure4", figure4, {"quick": True, "replicas": 2}),
]


def describe(campaign):
    """The parts of a campaign that decide what is simulated and printed."""
    return {
        "name": campaign.name,
        "series": [
            {
                "label": series.label,
                "params": series.params,
                "xs": [series_point.x for series_point in series.points],
                "keys": [
                    point.key() for series_point in series.points for point in series_point.points
                ],
            }
            for series in campaign.series
        ],
    }


def test_every_figure_grid_matches_the_golden_byte_for_byte():
    cases = {
        " ".join([name] + [f"{key}={value}" for key, value in grid.items()]): describe(
            module.build_campaign(**grid)
        )
        for name, module, grid in CASES
    }
    goldens.check(GOLDEN, cases)
