"""Geometric primitives shared by the circuit model and the router.

The router works on an integer grid: columns index horizontal positions,
rows index standard-cell rows, and channels index the horizontal routing
regions between (and above/below) rows.  Everything in this package is
plain-integer geometry with no routing semantics attached.
"""

from repro.geometry.point import Point, manhattan
from repro.geometry.bbox import BBox
from repro.geometry.interval import (
    Interval,
    IntervalSet,
    max_overlap,
    max_overlap_ranges,
)
from repro.geometry.segment import Segment

__all__ = [
    "Point",
    "manhattan",
    "BBox",
    "Interval",
    "IntervalSet",
    "max_overlap",
    "max_overlap_ranges",
    "Segment",
]
