"""Subgroups of GL2(Z/NZ), the geometry of their modular curves, and degree
screens for points over a fixed j-class."""

from .catalog import (CatalogEntry, ScreenReport, ScreenRow, Table,
                      emit_table1, emit_table2, intermediate_deltas,
                      load_catalog, parse_catalog, screen_entry,
                      serialize_catalog)
from .curves import (CosetSpace, CurveData, coset_space, curve_data,
                     curve_genus, label_prefix, map_degree)
from .errors import (CatalogError, ComputationCap, EvenPrimeUnsupported,
                     ModscreenError, ModulusMismatch, NonDivisor,
                     NonIntegral, NonInvertible, NonInvertibleGenerator,
                     NotASubgroup, NotFullDeterminant, OrbitTooLarge,
                     ParseError, TooLarge)
from .points import (GaloisImageContext, LevelReductionResult, Verdict,
                     cartan_degree_formula, fiber_degrees, galois_context,
                     level_reduction, point_degree, point_degree_general,
                     rr_screen, semidirect_lower_bound)
from .subgroups import (BorelGroup, CartanNormalizer, FullGroup,
                        GeneratedGroup, LiftedGroup, SL2Part, SubgroupSpec,
                        adjoin_minus_i, borel, borel_index, borel_order,
                        contains_minus_i, gl2_order, index_via_orbit,
                        kernel_generator_quads, level, lift_subgroup,
                        nested_index, nonsplit_cartan_normalizer,
                        nonsplit_cartan_normalizer_preimage, reduce_subgroup,
                        sl2_order)
from .zmod import (UnitSubgroup, delta_full, delta_pm1, delta_trivial,
                   divisors, euler_phi, factorize, unit_subgroup,
                   unit_subgroups_containing_minus_one, units)

__version__ = "0.1.0"

__all__ = [
    "BorelGroup", "CartanNormalizer", "CatalogEntry", "CatalogError",
    "ComputationCap", "CosetSpace", "CurveData", "EvenPrimeUnsupported",
    "FullGroup", "GaloisImageContext", "GeneratedGroup",
    "LevelReductionResult", "LiftedGroup", "ModscreenError", "ModulusMismatch",
    "NonDivisor", "NonIntegral", "NonInvertible", "NonInvertibleGenerator",
    "NotASubgroup", "NotFullDeterminant", "OrbitTooLarge", "ParseError",
    "SL2Part", "ScreenReport", "ScreenRow", "SubgroupSpec", "Table",
    "TooLarge", "UnitSubgroup", "Verdict", "adjoin_minus_i", "borel",
    "borel_index", "borel_order", "cartan_degree_formula", "contains_minus_i",
    "coset_space", "curve_data", "curve_genus", "delta_full", "delta_pm1",
    "delta_trivial", "divisors", "emit_table1", "emit_table2", "euler_phi",
    "factorize", "fiber_degrees", "galois_context", "gl2_order",
    "index_via_orbit", "intermediate_deltas", "kernel_generator_quads",
    "label_prefix", "level", "level_reduction", "lift_subgroup",
    "load_catalog", "map_degree", "nested_index", "nonsplit_cartan_normalizer",
    "nonsplit_cartan_normalizer_preimage", "parse_catalog", "point_degree",
    "point_degree_general", "reduce_subgroup", "rr_screen", "screen_entry",
    "semidirect_lower_bound", "serialize_catalog", "sl2_order",
    "unit_subgroup", "unit_subgroups_containing_minus_one", "units",
]
