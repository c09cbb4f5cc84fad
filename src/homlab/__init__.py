"""homlab: beam-splitter joint photon-number distributions, lossy detection
and heralding, and exact-rational certification of interference zeros."""

__version__ = "1.0.0"

from .bs_core import (BALANCED, BeamSplitterSetting, amplitude_blocks,
                      bs_coefficient, bs_prob_exact, cos_factor_residual,
                      g_poly, measured_amplitude, transform_fock_pair)
from .detector import (LossConfig, SqueezedSource, bernoulli_matrix,
                       herald_posterior, lossy_distribution,
                       spdc_detection_prob, squeezing_db, tmss_prob)
from .dicke import (AngularState, central_probability,
                    central_probability_exact, central_zero_sweep, fock_to_jm,
                    jm_to_fock, rotation_distribution, wigner_d)
from .joint_dist import (JointDistribution, default_grid_max, joint_fs_fs,
                         joint_fs_fs_exact, joint_fs_mixed, joint_fs_pure,
                         joint_general, joint_pure_mixed, joint_pure_pure)
from .nodal import (BALANCED_N2_FAMILIES, BALANCED_N3_FAMILIES, CnlReport,
                    KNOWN_FAMILIES, ParametricSolution, T34_N2_FAMILIES,
                    VerifyResult, ZeroSet, bfs_zeros, canonical_form,
                    cnl_scan, extremal_branch_points, search_parametric,
                    verify_parametric)
from .numerics import (FLOAT_ZERO_TOL, Real, binomial, falling_factorial,
                       is_exact, is_zero, parse_fraction)
from .states import (EPS_NORM, MixedState, Parity, PureState, ValidationReport,
                     coherent, fock, fock_superposition, load_custom, odd_cat,
                     parse_state, photon_added_smss, pure_from_amplitudes,
                     thermal, validate)

__all__ = [name for name in dir() if not name.startswith("_")]
