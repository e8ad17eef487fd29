"""Simplex and cyclic-polygon centers in Minkowski (normed) spaces.

Circumcenters, Monge points, complementary points, Euler lines, and
Feuerbach 2(d+1)-spheres of simplices under arbitrary norms, plus the
cyclic-polygon analogues in normed planes, each backed by brute-force
oracles and randomized verification suites.
"""

__version__ = "0.1.0"

from .affine import Hyperplane, Line
from .centers import (CentersReport, euler_point, full_report, m_hyperplanes, monge_lines,
                      monge_point)
from .circumcenter import (CircumResult, NoCenterError, grid_oracle_circumcenters,
                           is_circumcenter, solve_circumcenter)
from .figures import SHOW_MODES, render_figure
from .instances import (Instance, InstanceError, dump_report, load_instance,
                        parse_instance, write_atomic)
from .norms import Norm, Tolerances, is_birkhoff_orthogonal, is_isosceles_orthogonal
from .polygon import (CyclicPolygon, PolygonReport, parallelepiped_lift,
                      sample_cyclic_polygon, subpolygon_family,
                      verify_polygon_theorems)
from .simplex import Simplex, euclid_orthocenter

__all__ = [
    "Norm", "Tolerances", "is_isosceles_orthogonal", "is_birkhoff_orthogonal",
    "Line", "Hyperplane",
    "Simplex", "euclid_orthocenter",
    "CircumResult", "NoCenterError", "is_circumcenter", "solve_circumcenter",
    "grid_oracle_circumcenters",
    "CentersReport", "euler_point", "monge_point",
    "monge_lines", "m_hyperplanes", "full_report",
    "CyclicPolygon", "PolygonReport", "subpolygon_family",
    "verify_polygon_theorems", "parallelepiped_lift", "sample_cyclic_polygon",
    "Instance", "InstanceError", "parse_instance", "load_instance",
    "dump_report", "write_atomic",
    "render_figure", "SHOW_MODES",
]
