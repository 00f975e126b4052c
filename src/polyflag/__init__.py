"""Regular and chiral polytopes through their automorphism groups.

The pipeline: write down a finite group presentation, enumerate its
cosets to get a faithful regular representation, verify the structural
conditions that make the group the automorphism group of a polytope,
then read off face counts, flatness, tightness, chirality and the
flag-count bounds.
"""

from .presentation import (Word, Presentation, PresentationError,
                           REFLECTION, ROTATION, make_presentation,
                           parse_presentation, serialize_presentation,
                           coxeter_order)
from .coset_enum import (CosetTable, CosetLimitExceeded,
                         CoxeterLimitExceeded, InternalError,
                         DEFAULT_MAX_COSETS, enumerate_cosets, coset_action)
from .permgroup import (Perm, word_image, orbit, build_chain,
                        membership_test, intersect_subgroups)
from .stringc import (RegularGroup, StringGroup, SggiViolation,
                      CGroupVerdict, IntersectionWitness, build_string_group,
                      is_string_c_group, intersection_condition_exhaustive,
                      dual)
from .analysis import (AnalysisReport, FlagBound, analyze, f_vector,
                       is_flat_km, flatness_spectrum, is_flat, is_tight,
                       is_degenerate, covering_exists,
                       audit_counting_propositions, min_nonflat_flags)
from .constructions import (CertificateMismatch, AmalgamCollapse,
                            FamilySpec, coxeter, simplex_extension,
                            torus_map, hemi_icosahedron, universal_amalgam,
                            simplex_amalgam_check, table2_witness,
                            build_family)
from .chiral import (RotationGroup, RotationViolation, StructureFacts,
                     build_rotation_group, is_chiral, enantiomorph, mix_order,
                     mixed_regular_cover_flags, chiral_lower_bound,
                     structure_constraint_audit, rotation_torus_map,
                     chiral_report)

__version__ = "0.1.0"
