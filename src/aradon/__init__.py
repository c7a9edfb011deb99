"""Attenuated Radon transform on convex planar domains.

Boundary data synthesis, the range characterization through A-analytic
Hilbert transforms, and source reconstruction by the explicit Cauchy
integral formula.  Submodules import lazily so the command-line entry
point can configure threading before numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "make_boundary": "geometry",
    "ConvexBoundary": "geometry",
    "Chord": "geometry",
    "cast_chord": "geometry",
    "radial_parametrization": "geometry",
    "tau_angular_jump": "geometry",
    "classify_boundary_pair": "geometry",
    "AngularGrid": "harmonics",
    "ModeTrace": "harmonics",
    "ModeSeq": "harmonics",
    "project_minus": "harmonics",
    "project_plus": "harmonics",
    "assemble_real": "harmonics",
    "convolve": "harmonics",
    "convolve_seq": "harmonics",
    "identity_seq": "harmonics",
    "weighted_norms": "harmonics",
    "lemma21_identity": "harmonics",
    "QuadSettings": "xray",
    "ScalarField": "xray",
    "phantom": "xray",
    "grid_field": "xray",
    "Sinogram": "xray",
    "divergence_beam": "xray",
    "radon_full_line": "xray",
    "radon_profile": "xray",
    "forward_sinogram": "xray",
    "verify_radon_identity": "xray",
    "ModeField": "bukhgeim",
    "RangeResidual": "bukhgeim",
    "CartesianGrid": "bukhgeim",
    "make_patch": "bukhgeim",
    "op_C": "bukhgeim",
    "op_S": "bukhgeim",
    "op_G": "bukhgeim",
    "hilbert_H0": "bukhgeim",
    "range_residual_0": "bukhgeim",
    "cauchy_build": "bukhgeim",
    "trace_plus": "bukhgeim",
    "aanaliticity_defect": "bukhgeim",
    "del_v_minus": "bukhgeim",
    "reconstruct_f0": "bukhgeim",
    "finite_hilbert": "attenuation",
    "IntegratingFactor": "attenuation",
    "build_h": "attenuation",
    "hilbert_Ha": "attenuation",
    "range_residual_a": "attenuation",
    "residual_route_gap": "attenuation",
    "reconstruct_f_attenuated": "attenuation",
    "RunConfig": "config",
    "parse_config": "config",
    "load_config": "config",
}


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        mod = importlib.import_module("." + _EXPORTS[name], __name__)
        value = getattr(mod, name)
        globals()[name] = value
        return value
    if name == "errors":
        import importlib

        return importlib.import_module(".errors", __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(list(globals()) + list(_EXPORTS) + ["errors"])
