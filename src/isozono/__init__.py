"""Exact edge-boundary, zonotope, and isoperimetric toolkit for lattice graphs.

Everything geometric is computed in exact rational arithmetic: lattice-graph
edge boundaries and their projection/gap identity, limiting zonotopes with
full face data, the continuous boundary functional with its sharp
isoperimetric certificate, dual projection lattices, and discrete
minimum-boundary search.  Floating point appears in three places only, none
of them a reported number: figure files, the annealing acceptance draw of
local search, and the wall-clock limits and percentage display of
``isozono reproduce``.
"""

from .boundary import (BMCertificate, BoundaryValue, ProbeRow,
                       brunn_minkowski_certificate, continuous_boundary,
                       directional_sweep, finite_difference_probe,
                       zonotope_boundary_identity)
from .catalog import (BUILTIN_NAMES, GraphSpec, builtin_graph,
                      comparison_builtin, emit_graph_spec, parse_graph_spec)
from .errors import (AntipodalGeneratorError, BudgetExceededError,
                     DimensionDeficiencyError, DimensionMismatchError,
                     DuplicateGeneratorError, EmptySectionError, FormatError,
                     InternalConsistencyError, InvalidArgumentError, IsozonoError,
                     NonPrimitiveGeneratorError, RankDeficientError,
                     UnpairedSegmentError, ZeroVectorError)
from .geometry import (Polytope, convex_hull, minkowski_sum_segment, points_from_text,
                       points_to_text, polytope_from_text, polytope_to_text)
from .lattice import (LatticeBasis, boundary_lattice_points,
                      count_lattice_points, dual_projection_lattice_basis,
                      pick_area, projection_lattice_det_squared)
from .plgraph import (EdgeBoundaryReport, PLGraph, boundary_identity_report,
                      canonicalize_generators, edge_boundary_direct,
                      gap_count, projection_count, validate_pl_graph)
from .render import render_off, render_polytope, render_svg
from .search import (ConvergenceRow, LimitingShapeRow, SearchResult, ZonotopePointSet,
                     canonical_set, convergence_experiment, default_budget,
                     exhaustive_min_boundary, hull_direction_count,
                     limiting_shape_report, local_search_min_boundary, zonotope_point_set)
from .zonotope import (FacetSlice, FVector, Zonotope, build_zonotope,
                       build_zonotope_from_segments, f_vector, facet_polytope,
                       homothety_check, hyperplane_section, zonotope_hrep,
                       zonotope_of_graph, zonotope_vertices, zonotope_volume)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
