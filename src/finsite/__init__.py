"""Exact computational engine for finite sites: finite categories,
Grothendieck topologies, sheafification, skew category algebras, and the
module-category equivalences they induce."""

from .algebras import (AlgebraPresheaf, FiniteDimAlgebra, GrothendieckConstruction,
                       SkewCategoryAlgebra, chain_diagonal_algebra_presheaf,
                       constant_algebra_presheaf, diagonal_algebra,
                       field_algebra, group_algebra,
                       involution_group_algebra_presheaf, matrix_algebra,
                       skew_category_algebra, swap_action_presheaf,
                       verify_algebra)
from .category import (FiniteCategory, FullSubcategory, InvalidCategoryError,
                       IsoClassPoset, Morphism, co_ideal_generated_by, is_ei,
                       is_karoubian, iso_class_poset, karoubian_report,
                       minimal_subcategory,
                       strictly_full_karoubian_subcategories, validate_category)
from .errors import EngineError
from .fields import Matrix, PrimeField, RationalField, field_by_label
from .gallery import (category_by_name, chain_poset, cyclic_group,
                      group_by_name, group_category, idempotent_pair_category,
                      involution_category, orbit_category, p_orbit_category,
                      reduced_p_orbit_category, split_idempotent_category,
                      symmetric_group)
from .groups import FiniteGroup, InvalidGroupError
from .modules import (AlgebraModule, ModulePresheaf, bundle_unbundle_witness,
                      dense_block_decomposition, direct_sum_module_presheaves,
                      is_algebra_module_isomorphism, is_algebra_module_map,
                      is_module_presheaf_isomorphism, is_module_presheaf_map,
                      module_block_components, to_algebra_module,
                      to_algebra_module_map, to_module_presheaf,
                      transport_back_roundtrip_witness, transport_module,
                      transport_module_back, transport_roundtrip_witness,
                      unbundle_bundle_witness, verify_equivalence_roundtrip)
from .presheaves import (LinearPresheaf, Representation, SetPresheaf,
                         constant_linear_presheaf, constant_set_presheaf,
                         intertwiner_basis, invertible_intertwiner,
                         is_intertwiner, presheaves_isomorphic,
                         representable_presheaf, set_presheaf_isomorphism,
                         singleton_presheaf, zero_presheaf)
from .sheaves import (FamilySpace, dense_sheafify_fixed_points, extend_by_default,
                      families, half_sheafify, is_sheaf, kan_extension,
                      matching_families, right_kan_extension, rk_counit,
                      sheaf_defect, sheafify, unit_into_half_sheafification)
from .sieves import (Sieve, empty_sieve, generated_sieve, is_sieve,
                     maximal_sieve, pullback_sieve, sieves_on)
from .topology import (ClassificationError, GrothendieckTopology,
                       check_topology, classify_topology, dense_topology,
                       enumerate_topologies, finest_topology_for, is_topology,
                       maximal_topology, minimal_topology,
                       subcategory_topology)

__version__ = "0.1.0"
