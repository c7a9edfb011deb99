"""Acceptance suite: one test per advertised guarantee, gates as shipped.

Run with `pytest -v tests/test_acceptance.py` for one verdict line per
guarantee; each test prints the measured margins next to its gate.
"""

import json

import numpy as np
import pytest

from conftest import algebraic_trace
from aradon import io as aio
from aradon.attenuation import (
    build_h,
    finite_hilbert,
    range_residual_a,
    reconstruct_f_attenuated,
)
from aradon.bukhgeim import (
    CartesianGrid,
    op_C,
    op_S,
    range_residual_0,
    reconstruct_f0,
)
from aradon.cli import main
from aradon.geometry import make_boundary
from aradon.harmonics import (
    AngularGrid,
    ModeTrace,
    convolve_seq,
    project_minus,
    weighted_norms,
)
from aradon.xray import forward_sinogram, phantom, radon_profile
from oracles import identity_seq, lemma21_identity, tau_angular_jump


@pytest.fixture(scope="module")
def grid64(disk512):
    return CartesianGrid(disk512, 64, 64)


@pytest.fixture(scope="module")
def truth64(disk512, grid64):
    """Reference picture of the source and the gated error regions."""
    f = phantom("poly-bump", disk512)
    truth = np.zeros(grid64.ny * grid64.nx)
    truth[grid64.valid] = f(grid64.points)
    truth = truth.reshape(grid64.ny, grid64.nx)
    r = np.hypot(grid64.points_all[:, 0],
                 grid64.points_all[:, 1]).reshape(grid64.ny, grid64.nx)
    valid = grid64.valid.reshape(grid64.ny, grid64.nx)
    return truth, valid & (r <= 0.9)


@pytest.fixture(scope="module")
def att_phantom(disk512):
    return phantom("poly-bump", disk512, params={"amplitude": 0.3})


@pytest.fixture(scope="module")
def att_sino(disk512, ang128, att_phantom):
    f = phantom("poly-bump", disk512)
    return forward_sinogram(f, att_phantom, disk512, ang128)


@pytest.fixture(scope="module")
def att_factors(disk512, ang128, grid64, att_phantom):
    return build_h(att_phantom, disk512, ang128, 32)


def rel_l2(pic, truth, region):
    return float(np.sqrt(np.sum((pic[region] - truth[region]) ** 2)
                         / np.sum(truth[region] ** 2)))


def test_01_forward_profile_matches_closed_form(disk512):
    """Line integrals of (1-|x|^2)^2 equal (16/15)(1-s^2)^(5/2)."""
    f = phantom("poly-bump", disk512)
    s_vals = np.linspace(-0.999, 0.999, 201)
    prof = radon_profile(f, disk512, np.array([1.0, 0.0]), s_vals)
    ref = (16.0 / 15.0) * (1.0 - s_vals ** 2) ** 2.5
    err = float(np.max(np.abs(prof - ref)))
    print(f"forward closed-form max abs error {err:.3e} (gate 1e-6)")
    assert err <= 1e-6


def test_02_consistent_residual_small_and_converging(polybump_trace):
    """Consistent data passes the range test; residual drops >= 3x on refinement."""
    rel1 = range_residual_0(polybump_trace).relative
    b2 = make_boundary("disk", 1024)
    sino2 = forward_sinogram(phantom("poly-bump", b2), phantom("zero", b2),
                             b2, AngularGrid(256))
    rel2 = range_residual_0(project_minus(sino2, 32)).relative
    print(f"residual 512/128: {rel1:.3e} (gate 1e-3); "
          f"1024/256: {rel2:.3e}; ratio {rel1 / rel2:.1f} (gate >= 3)")
    assert rel1 <= 1e-3
    assert rel2 <= rel1 / 3.0


def test_03_conjugate_mode_perturbation_detected(polybump_sino, polybump_trace,
                                                 disk512, tmp_path):
    """A conj(w) perturbation at size 0.1 trips the residual and the checker."""
    g = polybump_trace
    clean = range_residual_0(g).relative
    pert = 0.1 * weighted_norms(g)[2]  # 0.1 of the trace's own l1 size
    bad = g.data.copy()
    bad[0] = bad[0] + pert * np.conj(disk512.complex_nodes())
    tripped = range_residual_0(ModeTrace(disk512, g.n_modes, bad)).relative
    print(f"residual clean {clean:.3e} -> perturbed {tripped:.3f} (gate >= 0.05)")
    assert tripped >= 0.05

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"boundary": {"kind": "disk", "n_nodes": 512},
                               "modes": {"n": 32, "angles": 128}}))
    clean_path = tmp_path / "clean.bin"
    aio.write_sinogram(str(clean_path), polybump_sino)
    out = str(tmp_path / "chk")
    assert main(["check", "--config", str(cfg), "--out", out,
                 str(clean_path)]) == 0
    sino = aio.read_sinogram(str(clean_path))
    amp = 0.1 * float(np.max(np.abs(sino.data)))
    sino.data += amp * disk512.positions[:, 0][:, None]  # Re conj(w) profile
    bad_path = tmp_path / "bad.bin"
    aio.write_sinogram(str(bad_path), sino)
    assert main(["check", "--config", str(cfg), "--out", out,
                 str(bad_path)]) == 1
    print("checker exit code flips 0 -> 1")


def test_04_algebraic_traces_exact(disk512):
    """Single-row analytic traces pass at 1e-8; conj(w) leaves 2 conj(xi)."""
    worst = 0.0
    for rows in ({0: lambda w: w}, {1: lambda w: w}, {0: lambda w: w ** 2}):
        g = algebraic_trace(disk512, 8, rows)
        worst = max(worst, range_residual_0(g).relative)
    print(f"analytic trace residual worst {worst:.3e} (gate 1e-8)")
    assert worst <= 1e-8

    g = algebraic_trace(disk512, 8, {0: np.conj})
    res0 = range_residual_0(g).residual.data[0]
    dev = float(np.max(np.abs(res0 - 2.0 * np.conj(disk512.complex_nodes()))))
    print(f"conj(w) residual row 0 vs 2 conj(xi): max dev {dev:.3e} (gate 1e-8)")
    assert dev <= 1e-8


def test_05_interior_limit_first_order(disk512):
    """Cauchy integral approaches (g + Sg)/2 with order >= 1 in the distance."""
    w = disk512.complex_nodes()
    probes = range(0, disk512.n_nodes, 16)
    eps_list = (0.1, 0.05, 0.025)
    n_modes = 16
    measured = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        data = np.zeros((n_modes + 1, disk512.n_nodes), dtype=complex)
        for k in range(n_modes + 1):
            a0, a1 = (rng.standard_normal(2)
                      + 1j * rng.standard_normal(2)) / (1 + k) ** 2
            data[k] = a0 + a1 * w
        g = ModeTrace(disk512, n_modes, data)
        s = op_S(g)
        defects = []
        for eps in eps_list:
            dmax = 0.0
            for m in probes:
                lim = 0.5 * (g.data[:, m] + s.data[:, m])
                interior = op_C(g, (1.0 - eps) * w[m], margin=0.0)
                dmax = max(dmax, float(np.max(np.abs(interior - lim))))
            defects.append(dmax)
        orders = [np.log2(defects[i] / defects[i + 1]) for i in range(2)]
        measured.append(min(orders))
        assert defects[0] > defects[1] > defects[2]
        assert min(orders) >= 1.0 - 1e-3
    print(f"interior-limit orders over 4 affine draws: min {min(measured):.6f} "
          f"(gate >= 1)")

    # richer band-limited rows keep the monotone decrease
    for seed in range(4):
        rng = np.random.default_rng(seed)
        data = np.zeros((n_modes + 1, disk512.n_nodes), dtype=complex)
        for k in range(n_modes + 1):
            c = (rng.standard_normal(6)
                 + 1j * rng.standard_normal(6)) / (1 + k) ** 2
            data[k] = np.polyval(c, w)
        g = ModeTrace(disk512, n_modes, data)
        s = op_S(g)
        defects = []
        for eps in eps_list:
            dmax = 0.0
            for m in probes:
                lim = 0.5 * (g.data[:, m] + s.data[:, m])
                interior = op_C(g, (1.0 - eps) * w[m], margin=0.0)
                dmax = max(dmax, float(np.max(np.abs(interior - lim))))
            defects.append(dmax)
        assert defects[0] > defects[1] > defects[2]


def test_06_reconstruction_error_small_and_nonincreasing(
        disk512, polybump_trace, grid64, truth64):
    """Round trip at 5% on |xi| <= 0.9; error does not grow when modes double."""
    truth, region = truth64
    f = phantom("poly-bump", disk512)
    zero = phantom("zero", disk512)

    errs = [rel_l2(reconstruct_f0(polybump_trace, grid64), truth, region)]
    sino2 = forward_sinogram(f, zero, disk512, AngularGrid(256))
    g2 = project_minus(sino2, 64)
    errs.append(rel_l2(reconstruct_f0(g2, grid64), truth, region))
    print(f"recon rel L2: N=32 {errs[0]:.3e} (gate 0.05); "
          f"N=64 {errs[1]:.3e} (gate: no growth)")
    assert errs[0] <= 0.05
    assert errs[1] <= max(errs[0], 1e-12)  # both sit at the rounding floor


def test_07_integrating_factor_identities(att_factors):
    """alpha * beta convolves to the identity; exponentials stay one-sided."""
    print(f"stored: max negative mode {att_factors.max_neg_mode:.3e} "
          f"(gate 1e-6); identity dev {att_factors.max_identity_dev:.3e} "
          f"(gate 1e-8)")
    assert att_factors.max_neg_mode <= 1e-6
    assert att_factors.max_identity_dev <= 1e-8

    ident = identity_seq(att_factors.alpha.shape[0] - 1)
    conv = convolve_seq(att_factors.alpha, att_factors.beta)
    dev = float(np.max(np.abs(conv - ident[:, None])))
    print(f"recomputed alpha*beta identity dev {dev:.3e} (gate 1e-8)")
    assert dev <= 1e-8


def test_08_attenuated_cycle(disk512, ang128, att_sino, att_factors,
                             polybump_sino, polybump_trace, grid64, truth64):
    """Attenuated data passes its range test, reconstructs, and degenerates
    to the plain pipeline when the attenuation vanishes."""
    truth, region = truth64
    g = project_minus(att_sino, 32)
    rr = range_residual_a(g, att_factors)
    pic = reconstruct_f_attenuated(g, att_factors, grid64)
    err = rel_l2(pic, truth, region)
    print(f"attenuated residual {rr.relative:.3e} (gate 5e-3); "
          f"recon rel L2 {err:.3e} (gate 0.08)")
    assert rr.relative <= 5e-3
    assert err <= 0.08

    zero = phantom("zero", disk512)
    factors0 = build_h(zero, disk512, ang128, 32)
    res_gap = float(np.max(np.abs(
        range_residual_a(polybump_trace, factors0).residual.data
        - range_residual_0(polybump_trace).residual.data)))
    pic_gap = float(np.max(np.abs(
        reconstruct_f_attenuated(polybump_trace, factors0, grid64)
        - reconstruct_f0(polybump_trace, grid64))))
    print(f"zero-attenuation reduction gaps: residual {res_gap:.3e}, "
          f"reconstruction {pic_gap:.3e} (gate 1e-6)")
    assert res_gap <= 1e-6
    assert pic_gap <= 1e-6


def test_09_finite_hilbert_semicircle_pair():
    """Transform of sqrt(1-s^2) returns s inside, s - sign(s) sqrt(s^2-1) outside."""
    s = np.linspace(-1.5, 1.5, 2048)
    # b = [1] is the series sin(phi) = sqrt(1 - s^2), s = cos(phi)
    h = finite_hilbert(np.array([1.0]), s).real
    ref = np.where(np.abs(s) <= 1.0, s,
                   s - np.sign(s) * np.sqrt(np.maximum(s * s - 1.0, 0.0)))
    err = float(np.max(np.abs(h - ref)))
    print(f"semicircle pair max abs error {err:.3e} at 2048 points (gate 1e-15)")
    assert err <= 1e-15


def test_10_sequence_identities_and_chord_jump(disk256):
    """Weighted-norm identities hold to rounding; d tau/d phi jumps by 4 R0."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        c = rng.uniform(0.0, 1.0, size=int(rng.integers(3, 51)))
        lhs1, rhs1, lhs2, rhs2 = lemma21_identity(c)
        scale = max(abs(lhs1), abs(lhs2), 1.0)
        worst = max(worst, abs(lhs1 - rhs1) / scale, abs(lhs2 - rhs2) / scale)
    print(f"identity worst relative dev over 100 draws {worst:.3e} (gate 1e-12)")
    assert worst <= 1e-12

    j_unit = tau_angular_jump(disk256, np.array([1.0, 0.0]))
    scaled = make_boundary("ellipse", 256, a=2.0, b=2.0)
    j_scaled = tau_angular_jump(scaled, np.array([2.0, 0.0]))
    print(f"chord-length jump: radius 1 -> {j_unit:.4f} (expect 4), "
          f"radius 2 -> {j_scaled:.4f} (expect 8), 2% gates")
    assert abs(j_unit - 4.0) <= 0.02 * 4.0
    assert abs(j_scaled - 8.0) <= 0.02 * 8.0


@pytest.mark.parametrize("a_name, a_params", [
    ("poly-bump", {"amplitude": 0.3}),
    ("gaussian-truncated", {"sigma": 0.6, "amplitude": 0.3}),
], ids=["bump", "gaussian-0.6"])
def test_11_attenuated_floors(disk512, ang128, grid64, truth64, a_name, a_params):
    """With d beta exact, the attenuated picture at the default sizes keeps
    the plain route's accuracy away from the curve, and d beta_0 vanishes
    to roundoff.  Measured for both `a`: max error 1.48e-7 beyond distance
    0.07, relative L2 3.45e-8 (bump) and 3.53e-8 (Gaussian) over
    |x| <= 0.9, max |d beta_0| 7e-17."""
    truth, region = truth64
    f = phantom("poly-bump", disk512)
    a = phantom(a_name, disk512, params=a_params)
    g = project_minus(forward_sinogram(f, a, disk512, ang128), 32)
    pic, dbeta0 = reconstruct_f_attenuated(g, build_h(a, disk512, ang128, 32), grid64,
                                           return_dbeta0=True)
    far = (1.0 - np.hypot(grid64.points[:, 0], grid64.points[:, 1])) > 0.07
    far_err = float(np.max(np.abs(pic.ravel()[grid64.valid] - truth.ravel()[grid64.valid])[far]))
    err = rel_l2(pic, truth, region)
    print(f"{a_name}: max error beyond 0.07 {far_err:.3e} (gate 3e-7); rel L2 {err:.3e} "
          f"(gate 7e-8); max |d beta_0| {dbeta0:.2e} (gate 1e-12)")
    assert far_err <= 3e-7
    assert err <= 7e-8
    assert dbeta0 <= 1e-12


@pytest.mark.parametrize("kind, attenuated", [("ellipse", False), ("disk", True)],
                         ids=["ellipse", "disk-attenuated"])
def test_12_residual_floors_through_cli(tmp_path, kind, attenuated):
    """`forward` then `check` at the defaults (512 nodes, 128 angles, N=32,
    poly-bump f): the 1.5 x 1 ellipse's consistent residual is its
    documented floor, 1.969e-4, to the digits printed (the cut of G's
    coupling sum, ROADMAP item 2), and the disk's attenuated residual (a
    poly-bump `a` 0.3) stays at roundoff, measured 1.544e-9."""
    doc = {"boundary": {"kind": kind, "a": 1.5 if kind == "ellipse" else 1.0},
           "phantoms": {"f": {"name": "poly-bump"},
                        "a": {"name": "poly-bump", "params": {"amplitude": 0.3}}}}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    flag = ["--attenuated"] if attenuated else []
    assert main(["forward", "--config", str(cfg), "--out", str(tmp_path)] + flag) == 0
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path),
                 str(tmp_path / "sinogram.bin")]) == 0
    report = json.loads((tmp_path / "residual.json").read_text())
    assert report["attenuated"] is attenuated
    rel = report["relative"]
    print(f"{kind} {'attenuated ' if attenuated else ''}residual {rel:.4e}")
    if attenuated:
        assert rel <= 2e-9
    else:
        assert f"{rel:.3e}" == "1.969e-04"
