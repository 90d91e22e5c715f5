"""Linearized Regge calculus on periodic tetrahedral meshes of a 3-torus.

Edge metric finite elements with line-integral degrees of freedom, the
distributional edge-jump (Saint-Venant) operator, the discrete elasticity
sequence with commuting interpolators, the nonlinear Regge action with
deficit angles, and a generalized eigensolver validated against the exact
Fourier spectrum of the flat torus.
"""

__version__ = "0.1.0"

from .mesh import (MeshError, PeriodicMesh, TorusGeometry, build_torus_mesh,
                   mesh_summary)
from .spaces import (EdgeMeasure, ReggeField, SmoothField, VertexVectorField,
                     VertexVectorMeasure, deformation, divergence_x2,
                     interpolate_0, interpolate_1, interpolate_2,
                     interpolate_3, matrix_mode, pair_x2_x1,
                     regge_to_tet_matrices, skew, vector_mode)
from .saint_venant import (BlockCirculant, apply_ctc, assemble_mass,
                           assemble_stiffness, edge_jump_scalar, read_coo,
                           stencil_operators, write_coo)
from .spectrum import (FourierSpectrum, SpectrumResult, assign_clusters,
                       convergence_study, fourier_oracle, sigma_modes,
                       solve_pencil)
from .action import (EdgeLengthConfig, EdgeSector, RealizabilityError,
                     build_edge_sector, deficit_angle_dihedral,
                     deficit_angle_holonomy, deficit_angles,
                     euclidean_lengths, holonomy_deficits,
                     linearized_deficit, linearized_deficits,
                     perturbed_lengths, regge_action, schlafli_check,
                     second_variation_check)
