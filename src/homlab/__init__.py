"""homlab: beam-splitter joint photon-number distributions, lossy detection
and heralding, and exact-rational certification of interference zeros."""

__version__ = "1.0.0"

#: largest cutoff or photon number of a state, of 2J in the collective-spin
#: sweep and of the latent pair number in heralding; here, so that every module
#: reads it without loading numpy or fractions
MAX_CUTOFF = 100000

#: public name -> the module that defines it, imported on first use (PEP 562)
_MODULE_OF = {name: module for module, names in [
    ("bs_core", "BALANCED BeamSplitterSetting amplitude_blocks bs_prob_exact measured_amplitude"),
    ("detector", "LossConfig SqueezedSource bernoulli_matrix herald_posterior "
                 "lossy_distribution spdc_detection_prob squeezing_db"),
    ("dicke", "central_probability_exact central_zero_sweep fock_to_jm wigner_d"),
    ("joint_dist", "CnlReport JointDistribution cnl_scan joint_fs_fs_exact joint_fs_mixed "
                   "joint_fs_pure joint_general"),
    ("nodal", "BALANCED_N2_FAMILIES BALANCED_N3_FAMILIES KNOWN_FAMILIES ParametricSolution "
              "T34_N2_FAMILIES VerifyResult ZeroSet bfs_zeros canonical_form cos_factor_residual "
              "extremal_branch_points g_poly search_parametric verify_parametric"),
    ("states", "DiagonalState EPS_NORM MixedState PureState coherent fock fock_superposition "
               "load_custom odd_cat parse_state photon_added_smss thermal"),
] for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
