"""sylowlab: exhaustive verification of counting and structure theorems
on concrete small finite groups.

Groups are dense multiplication tables; subgroups are bitsets; every
theorem check returns a structured report instead of asserting.
"""

from .catalog import GroupSpec, build, catalog_specs, parse_spec, render, standard_catalog
from .config import Caps, DEFAULT_CAPS, caps_from_env
from .counting import (
    KindClassification,
    VerificationReport,
    classify_kinds,
    complex_power_stabilization,
    congruence7,
    count_containing,
    count_elements_of_order,
    count_normal_within,
    count_p_subgroups,
    count_solutions,
    incidence_check,
    normal_fusion_check,
    power_stabilization_check,
    solution_subgroup,
    sylow_chain_check,
    sylow_single_class,
    theorem_suite,
    verify_coprime_product,
    verify_divisibility,
    verify_order_p_form,
)
from .groups import (
    ElementIndex,
    FiniteGroup,
    Permutation,
    conjugate,
    conjugates,
    element_order,
    group_from_generators,
    group_from_table,
    power,
)
from .subgroups import (
    ComplexSet,
    ConjugacyClassPartition,
    Lattice,
    Quotient,
    SubgroupSet,
    all_subgroups,
    as_group,
    automorphisms,
    center,
    centralizer,
    closure_of,
    conjugacy_classes,
    cyclic_subgroup,
    is_characteristic,
    is_cyclic,
    is_normal,
    lattice,
    normalizer,
    quotient,
    subgroup_conjugacy_classes,
    subgroups_of_order,
    subgroups_within,
    trivial_subgroup,
    whole_group,
)
from .sylow import (
    ChiefSeries,
    CoprimeDecomposition,
    SylowChain,
    central_element_of_order_p,
    chief_series,
    coprime_decomposition,
    sylow_chain,
)

__version__ = "0.1.0"
