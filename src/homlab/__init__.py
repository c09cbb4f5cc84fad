"""homlab: beam-splitter joint photon-number distributions, lossy detection
and heralding, and exact-rational certification of interference zeros."""

__version__ = "1.0.0"

from .bs_core import (BALANCED, BeamSplitterSetting, amplitude_block,
                      amplitude_blocks, bs_prob_exact, measured_amplitude)
from .detector import (LossConfig, SqueezedSource, bernoulli_matrix,
                       herald_posterior, lossy_distribution,
                       spdc_detection_prob, squeezing_db, tmss_prob)
from .dicke import (AngularState, central_probability_exact,
                    central_zero_sweep, fock_to_jm, jm_to_fock, wigner_d)
from .joint_dist import (JointDistribution, joint_fs_fs, joint_fs_fs_exact,
                         joint_fs_mixed, joint_fs_pure, joint_general,
                         joint_pure_mixed, joint_pure_pure)
from .nodal import (BALANCED_N2_FAMILIES, BALANCED_N3_FAMILIES, CnlReport,
                    KNOWN_FAMILIES, ParametricSolution, T34_N2_FAMILIES,
                    VerifyResult, ZeroSet, bfs_zeros, canonical_form,
                    cnl_scan, cos_factor_residual, extremal_branch_points,
                    g_poly, search_parametric, verify_parametric)
from .states import (EPS_NORM, MixedState, Parity, PureState, ValidationReport,
                     coherent, fock, fock_superposition, load_custom, odd_cat,
                     parse_state, photon_added_smss, thermal, validate)

__all__ = [name for name in dir() if not name.startswith("_")]
