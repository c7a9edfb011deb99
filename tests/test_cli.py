"""End-to-end tests of the command line front-end.

Everything runs in-process through aradon.cli.main so exit codes and
output files can be asserted directly; one subprocess test covers the
module entry point and run-to-run determinism.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import aradon.config
from aradon import bukhgeim
from aradon import io as aio
from aradon.bukhgeim import CartesianGrid, range_residual_0
from aradon.cli import main
from aradon.config import load_config, parse_config
from aradon.geometry import ON_BOUNDARY_TOL, ConvexBoundary
from aradon.harmonics import project_minus
from aradon.xray import forward_sinogram, phantom
from oracles import searched_distance


def write_config(path, **overrides):
    """Small, fast run config; overrides merge at the section level."""
    doc = {
        "boundary": {"kind": "disk", "n_nodes": 128},
        "modes": {"n": 8, "angles": 32},
        "quad": {"panels": 4, "points": 4},
        "grid": {"nx": 20, "ny": 20},
        "phantoms": {"f": {"name": "poly-bump"}},
        "tolerances": {"s_samples": 512},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(doc.get(key), dict):
            doc[key].update(val)
        else:
            doc[key] = val
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture()
def cfg_path(tmp_path):
    return write_config(tmp_path / "run.json")


@pytest.fixture()
def sino_path(cfg_path, tmp_path):
    out = tmp_path / "fw"
    assert main(["forward", "--config", cfg_path, "--out", str(out)]) == 0
    return str(out / "sinogram.bin")


class TestPhantomCommand:
    def test_writes_field_csv(self, cfg_path, tmp_path):
        out = tmp_path / "ph"
        assert main(["phantom", "--config", cfg_path, "--out", str(out)]) == 0
        xs, ys, pic = aio.read_field_csv(str(out / "phantom_f.csv"))
        assert pic.shape == (20, 20)
        assert 0.9 <= pic.max() <= 1.0
        assert pic.min() == 0.0  # exterior grid points stay zero

    def test_attenuated_flag_selects_a(self, cfg_path, tmp_path):
        out = tmp_path / "ph"
        assert main(["phantom", "--config", cfg_path, "--out", str(out),
                     "--attenuated"]) == 0
        xs, ys, pic = aio.read_field_csv(str(out / "phantom_a.csv"))
        assert np.all(pic == 0.0)  # default attenuation is zero

    def test_out_dir_from_config(self, tmp_path):
        dest = tmp_path / "dest"
        cfg = write_config(tmp_path / "run.json", io={"out_dir": str(dest)})
        assert main(["phantom", "--config", cfg]) == 0
        assert (dest / "phantom_f.csv").exists()


class TestForwardCommand:
    def test_sinogram_file(self, cfg_path, sino_path):
        sino = aio.read_sinogram(sino_path)
        assert sino.data.shape == (128, 32)
        assert not sino.attenuated
        cfg = load_config(cfg_path)
        assert sino.meta["config_hash"] == cfg.config_hash

    def test_csv_export(self, cfg_path, tmp_path):
        out = tmp_path / "fw"
        assert main(["forward", "--config", cfg_path, "--out", str(out),
                     "--csv"]) == 0
        table = np.loadtxt(out / "sinogram.csv", delimiter=",", skiprows=1)
        assert table.shape == (128 * 32, 6)

    def test_gauge_zero_on_incoming(self, sino_path):
        sino = aio.read_sinogram(sino_path)
        dirs = np.stack([np.cos(sino.angular.angles),
                         np.sin(sino.angular.angles)], axis=1)
        incoming = (sino.boundary.normals @ dirs.T) < 0.0
        assert np.max(np.abs(sino.data[incoming])) == 0.0


class TestCheckCommand:
    def test_consistent_data_exits_zero(self, cfg_path, sino_path, tmp_path):
        out = tmp_path / "chk"
        assert main(["check", "--config", cfg_path, "--out", str(out),
                     sino_path]) == 0
        with open(out / "residual.json") as fh:
            doc = json.load(fh)
        assert doc["verdict"] == "consistent"
        assert doc["attenuated"] is False
        assert doc["relative"] <= doc["gate"]
        assert doc["config_hash"] == load_config(cfg_path).config_hash

    def test_perturbed_data_exits_one(self, cfg_path, sino_path, tmp_path):
        sino = aio.read_sinogram(sino_path)
        w = sino.boundary.positions[:, 0] - 1j * sino.boundary.positions[:, 1]
        amp = 0.1 * np.max(np.abs(sino.data))
        sino.data += amp * w.real[:, None]  # conj(w) profile, angle-constant
        bad = tmp_path / "bad.bin"
        aio.write_sinogram(str(bad), sino)
        out = tmp_path / "chk"
        assert main(["check", "--config", cfg_path, "--out", str(out),
                     str(bad)]) == 1
        with open(out / "residual.json") as fh:
            doc = json.load(fh)
        assert doc["verdict"] == "inconsistent"
        assert doc["relative"] > doc["gate"]

    def test_node_count_mismatch_exits_two(self, sino_path, tmp_path):
        other = write_config(tmp_path / "other.json",
                             boundary={"kind": "disk", "n_nodes": 64})
        assert main(["check", "--config", other, "--out",
                     str(tmp_path / "chk"), sino_path]) == 2

    def test_ellipse_axes_mismatch_exits_two(self, tmp_path, capsys):
        wide = write_config(tmp_path / "wide.json",
                            boundary={"kind": "ellipse", "n_nodes": 128,
                                      "a": 2.0, "b": 1.0})
        assert main(["forward", "--config", wide, "--out", str(tmp_path / "fw")]) == 0
        sino = str(tmp_path / "fw" / "sinogram.bin")
        other = write_config(tmp_path / "other.json",
                             boundary={"kind": "ellipse", "n_nodes": 128,
                                       "a": 1.5, "b": 1.0})
        capsys.readouterr()
        assert main(["check", "--config", other, "--out",
                     str(tmp_path / "chk"), sino]) == 2
        assert "ellipse" in capsys.readouterr().err
        assert main(["reconstruct", "--config", other, "--out",
                     str(tmp_path / "rec"), sino]) == 2
        # the matching config runs the range test (this coarse 2x1 ellipse
        # sits above the gate, so either verdict is a pass here)
        assert main(["check", "--config", wide, "--out",
                     str(tmp_path / "chk"), sino]) in (0, 1)


ELLIPSE = {"kind": "ellipse", "n_nodes": 128, "a": 1.5, "b": 1.0}
DISK = {"kind": "disk", "n_nodes": 128}


class TestReconstructCommand:
    def test_outputs_and_error_report(self, cfg_path, sino_path, tmp_path):
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", cfg_path, "--out", str(out),
                     sino_path]) == 0
        xs, ys, pic = aio.read_field_csv(str(out / "reconstruction.csv"))
        assert pic.shape == (20, 20)
        with open(out / "recon_report.json") as fh:
            doc = json.load(fh)
        assert doc["consistency_flag"] == 0
        assert doc["dbeta0_max"] == 0.0
        assert doc["relative_l2_error"] < 0.05
        assert doc["grid"] == {"nx": 20, "ny": 20,
                               "margin": doc["grid"]["margin"]}

    def test_missing_sinogram_exits_two(self, cfg_path, tmp_path):
        assert main(["reconstruct", "--config", cfg_path, "--out",
                     str(tmp_path / "rec"), str(tmp_path / "nope.bin")]) == 2

    @pytest.mark.parametrize("attenuated", [False, True], ids=["plain", "attenuated"])
    def test_inconsistent_data_flags_and_reconstructs(self, tmp_path, attenuated):
        """Data off the range, a Re(w) profile on every angle, fails the
        range test at recon_gate: the report's consistency_flag reads 1,
        and the picture is still written, with exit 0."""
        cfg, sino_path = self._sinogram(tmp_path, DISK, attenuated)
        sino = aio.read_sinogram(sino_path)
        sino.data += 0.5 * np.max(np.abs(sino.data)) * sino.boundary.positions[:, :1]
        bad = str(tmp_path / "bad.bin")
        aio.write_sinogram(bad, sino)
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", cfg, "--out", str(out), bad]) == 0
        _, _, pic = aio.read_field_csv(str(out / "reconstruction.csv"))
        assert pic.shape == (20, 20) and np.all(np.isfinite(pic))
        with open(out / "recon_report.json") as fh:
            doc = json.load(fh)
        assert doc["attenuated"] is attenuated
        assert doc["consistency_flag"] == 1

    @staticmethod
    def _sinogram(tmp_path, boundary, attenuated=False, **overrides):
        phantoms = {"f": {"name": "poly-bump"}}
        if attenuated:
            phantoms["a"] = {"name": "poly-bump", "params": {"amplitude": 0.2}}
        cfg = write_config(tmp_path / "run.json", boundary=boundary,
                           phantoms=phantoms, **overrides)
        args = ["forward", "--config", cfg, "--out", str(tmp_path / "fw")]
        assert main(args + (["--attenuated"] if attenuated else [])) == 0
        return cfg, str(tmp_path / "fw" / "sinogram.bin")

    # the attenuated case runs on the disk: this coarse 1.5x1 ellipse fails
    # the factor gate (ROADMAP item 3)
    @pytest.mark.parametrize("boundary, attenuated", [(ELLIPSE, False), (DISK, True)],
                             ids=["ellipse", "disk-attenuated"])
    def test_grid_points_checked_once(self, tmp_path, monkeypatch, boundary, attenuated):
        """The kernels take the grid's own inside and distance cut: the grid
        makes the one distance call on many points of a reconstruct.  The
        others take one point each, the centre of a phantom's support disk."""
        cfg, sino = self._sinogram(tmp_path, boundary, attenuated)
        calls = []
        distance = ConvexBoundary.distance_to_boundary

        def counted(self, points):
            calls.append(np.shape(points))
            return distance(self, points)

        monkeypatch.setattr(ConvexBoundary, "distance_to_boundary", counted)
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "rec"),
                     sino]) == 0
        assert [s for s in calls if s != (2,)] == [(20 * 20, 2)]
        assert len(calls) == 1 + (2 if attenuated else 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_odd_grid_on_long_ellipse(self, tmp_path, monkeypatch):
        """A 33 x 33 grid of the 3 x 1 ellipse has points on the centre and
        on both axes; the grid the reconstruct builds reads the search's
        signed distance there, and nothing warns."""
        grids = []

        class Recorded(CartesianGrid):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                grids.append(self)

        monkeypatch.setattr(aradon.config, "CartesianGrid", Recorded)
        boundary = {"kind": "ellipse", "n_nodes": 128, "a": 3.0, "b": 1.0}
        cfg, sino = self._sinogram(tmp_path, boundary, grid={"nx": 33, "ny": 33})
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "rec"),
                     sino]) == 0
        (grid,) = grids
        pts = grid.points_all
        assert np.any(np.all(pts == 0.0, axis=1))
        assert np.sum(pts[:, 0] == 0.0) == 33 and np.sum(pts[:, 1] == 0.0) == 33
        ref = searched_distance(grid.boundary, pts)
        assert np.max(np.abs(grid.distance - ref[grid.valid])) <= 1e-14
        assert np.array_equal(grid.inside, ref >= -ON_BOUNDARY_TOL)
        assert np.array_equal(grid.valid, ref >= grid.margin)

    def test_grid_margin_below_kernel_margin_exits_two(self, tmp_path, capsys):
        """The interior kernels need every grid point 3h from the curve: a
        configured margin under that is a config error naming the key and
        the boundary's minimum, not a numeric failure.  `phantom` reads no
        kernel and keeps working."""
        cfg, sino = self._sinogram(tmp_path, DISK, grid={"margin": 0.01})
        capsys.readouterr()
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "rec"),
                     sino]) == 2
        err = capsys.readouterr().err
        assert "config.grid.margin" in err
        assert "3h = %g" % (3.0 * 2.0 * np.pi / 128) in err
        assert main(["phantom", "--config", cfg, "--out", str(tmp_path / "ph")]) == 0


_U = 2.0 * np.pi * np.arange(64) / 64
# Table rows of the 1.5 x 1 ellipse, and of the five-petal r = 1 + 0.5 cos 5u,
# which is not convex.
ELLIPSE_ROWS = ["%.17g,%.17g" % xy for xy in zip(1.5 * np.cos(_U), np.sin(_U))]
FLOWER_ROWS = ["%.17g,%.17g" % xy for xy in zip((1.0 + 0.5 * np.cos(5.0 * _U)) * np.cos(_U),
                                                 (1.0 + 0.5 * np.cos(5.0 * _U)) * np.sin(_U))]


class TestTableBoundary:
    """Forward, check and reconstruct on a point-table boundary."""

    def test_cycle(self, tmp_path):
        u = 2.0 * np.pi * np.arange(64) / 64
        table = tmp_path / "boundary.csv"
        np.savetxt(table, np.column_stack([1.5 * np.cos(u), np.sin(u)]),
                   delimiter=",", header="x,y", comments="", fmt="%.17g")
        cfg = write_config(tmp_path / "run.json",
                           boundary={"kind": "table", "n_nodes": 64,
                                     "table_path": str(table)},
                           modes={"n": 15, "angles": 32})
        assert main(["forward", "--config", cfg, "--out", str(tmp_path / "fw")]) == 0
        sino_path = str(tmp_path / "fw" / "sinogram.bin")
        sino = aio.read_sinogram(sino_path)
        assert sino.boundary.kind == "generic"
        dirs = np.stack([np.cos(sino.angular.angles),
                         np.sin(sino.angular.angles)], axis=1)
        incoming = (sino.boundary.normals @ dirs.T) < 0.0
        assert np.all(sino.data[incoming] == 0.0)

        assert main(["check", "--config", cfg, "--out", str(tmp_path / "chk"),
                     sino_path]) == 0
        with open(tmp_path / "chk" / "residual.json") as fh:
            assert json.load(fh)["verdict"] == "consistent"

        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "rec"),
                     sino_path]) == 0
        with open(tmp_path / "rec" / "recon_report.json") as fh:
            assert json.load(fh)["consistency_flag"] == 0

    @staticmethod
    def _table_config(tmp_path, name, a, **overrides):
        u = 2.0 * np.pi * np.arange(64) / 64
        table = tmp_path / (name + ".csv")
        np.savetxt(table, np.column_stack([a * np.cos(u), np.sin(u)]),
                   delimiter=",", header="x,y", comments="", fmt="%.17g")
        sections = {"modes": {"n": 15, "angles": 32}, **overrides}
        return write_config(tmp_path / (name + ".json"),
                            boundary={"kind": "table", "n_nodes": 64,
                                      "table_path": str(table)}, **sections)

    def test_other_table_exits_two(self, tmp_path, capsys):
        ellipse = self._table_config(tmp_path, "ellipse", 1.5)
        circle = self._table_config(tmp_path, "circle", 1.0)
        assert main(["forward", "--config", ellipse, "--out", str(tmp_path / "fw")]) == 0
        sino = str(tmp_path / "fw" / "sinogram.bin")
        capsys.readouterr()
        assert main(["check", "--config", circle, "--out",
                     str(tmp_path / "chk"), sino]) == 2
        assert "boundary table" in capsys.readouterr().err
        assert main(["reconstruct", "--config", circle, "--out",
                     str(tmp_path / "rec"), sino]) == 2
        assert main(["check", "--config", ellipse, "--out",
                     str(tmp_path / "chk"), sino]) == 0

    @pytest.mark.parametrize("rows, message", [
        (ELLIPSE_ROWS[:4] + ["abc,0.5"] + ELLIPSE_ROWS[5:], "table.csv, line 6: "),
        (ELLIPSE_ROWS[:4] + ["0.5"] + ELLIPSE_ROWS[5:], "table.csv, line 6: "),
        (ELLIPSE_ROWS[:4] + ["nan,0.5"] + ELLIPSE_ROWS[5:], "table.csv, line 6: "),
        (ELLIPSE_ROWS[:5], "at least 8 (x, y) rows"),
        (FLOWER_ROWS, "curvature lower bound violated"),
    ], ids=["non-numeric", "one-column", "non-finite", "five-rows", "non-convex"])
    def test_bad_table_exits_two(self, tmp_path, capsys, rows, message):
        """A table file that is no convex curve of finite x,y rows is a
        config input error: exit 2, naming the file, and the line of a bad
        row."""
        cfg = self._table_config(tmp_path, "table", 1.5)
        (tmp_path / "table.csv").write_text("\n".join(["x,y"] + rows) + "\n")
        capsys.readouterr()
        assert main(["forward", "--config", cfg, "--out", str(tmp_path / "fw")]) == 2
        err = capsys.readouterr().err
        assert message in err and "table.csv" in err

    def test_sinogram_without_table_checksum_exits_zero(self, tmp_path):
        """A table sinogram with no table checksum in its meta, or a stale one,
        checks: its boundary descriptor alone decides the match."""
        ellipse = self._table_config(tmp_path, "ellipse", 1.5)
        assert main(["forward", "--config", ellipse, "--out", str(tmp_path / "fw")]) == 0
        sino = aio.read_sinogram(str(tmp_path / "fw" / "sinogram.bin"))
        old = str(tmp_path / "old.bin")
        for meta in ({}, {"table_checksum": "0" * 64}):
            sino.meta = meta
            aio.write_sinogram(old, sino)
            assert main(["check", "--config", ellipse, "--out",
                         str(tmp_path / "chk"), old]) == 0

    def test_check_runs_on_the_forward_curve(self, tmp_path):
        """At 100 nodes the spline through a 48-point table is not the spline
        through its node positions: check tests the data on the config's
        curve, the one forward used."""
        u = 2.0 * np.pi * np.arange(48) / 48
        table = tmp_path / "boundary.csv"
        np.savetxt(table, np.column_stack([1.5 * np.cos(u), np.sin(u)]),
                   delimiter=",", header="x,y", comments="", fmt="%.17g")
        path = write_config(tmp_path / "run.json",
                            boundary={"kind": "table", "n_nodes": 100,
                                      "table_path": str(table)},
                            modes={"n": 15, "angles": 32})
        assert main(["forward", "--config", path, "--out", str(tmp_path / "fw")]) == 0
        assert main(["check", "--config", path, "--out", str(tmp_path / "chk"),
                     str(tmp_path / "fw" / "sinogram.bin")]) == 0
        with open(tmp_path / "chk" / "residual.json") as fh:
            relative = json.load(fh)["relative"]
        cfg = load_config(path)
        b = cfg.make_boundary()
        sino = forward_sinogram(cfg.make_phantom("f", b), phantom("zero", b), b,
                                cfg.make_angular(), quad=cfg.make_quad())
        assert relative == range_residual_0(project_minus(sino, 15)).relative


class TestFactorsAndCache:
    @pytest.fixture()
    def att_cfg(self, tmp_path):
        return write_config(
            tmp_path / "att.json",
            phantoms={"f": {"name": "poly-bump"},
                      "a": {"name": "poly-bump", "params": {"amplitude": 0.2}}},
        )

    def test_cache_build_and_reuse(self, att_cfg, tmp_path):
        cache = tmp_path / "factors.bin"
        assert main(["factors", "--config", att_cfg, "--out",
                     str(tmp_path / "fa"), "--factors-cache", str(cache)]) == 0
        factors = aio.read_factors_cache(str(cache))
        assert factors.n_modes == 8
        assert factors.s_samples == 512

        out = tmp_path / "fw"
        assert main(["forward", "--config", att_cfg, "--out", str(out),
                     "--attenuated"]) == 0
        sino = str(out / "sinogram.bin")
        assert aio.read_sinogram(sino).attenuated
        # attenuated check picks the flag up from the file itself
        before = os.path.getmtime(cache)
        assert main(["check", "--config", att_cfg, "--out",
                     str(tmp_path / "chk"), "--factors-cache", str(cache),
                     sino]) == 0
        assert os.path.getmtime(cache) == before  # reused, not rebuilt
        with open(tmp_path / "chk" / "residual.json") as fh:
            assert json.load(fh)["attenuated"] is True

    def test_wide_gaussian_factors_exit_zero(self, tmp_path):
        """A sigma = 0.6 Gaussian `a` on the disk (exit 3 with Ra on a
        uniform offset grid: leak 4.0e-5 against the 1e-6 gate)."""
        path = write_config(tmp_path / "wide.json", phantoms={
            "f": {"name": "poly-bump"},
            "a": {"name": "gaussian-truncated", "params": {"sigma": 0.6, "amplitude": 0.3}}})
        assert main(["factors", "--config", path, "--out", str(tmp_path / "fa")]) == 0

    def test_reconstruct_reports_dbeta0(self, tmp_path):
        """On a grid coarser than the margin every evaluated point carries a
        value, and the report's max |d beta_0|, zero exactly, reads roundoff."""
        coarse = write_config(
            tmp_path / "coarse.json", grid={"nx": 12, "ny": 12},
            phantoms={"f": {"name": "poly-bump"},
                      "a": {"name": "poly-bump", "params": {"amplitude": 0.2}}},
        )
        out = tmp_path / "fw"
        assert main(["forward", "--config", coarse, "--out", str(out),
                     "--attenuated"]) == 0
        rec = tmp_path / "rec"
        assert main(["reconstruct", "--config", coarse, "--out", str(rec),
                     str(out / "sinogram.bin")]) == 0
        with open(rec / "recon_report.json") as fh:
            doc = json.load(fh)
        assert "fd_zeroed_points" not in doc
        assert 0.0 <= doc["dbeta0_max"] <= 1e-12
        _, _, pic = aio.read_field_csv(str(rec / "reconstruction.csv"))
        grid = load_config(coarse).make_grid(load_config(coarse).make_boundary())
        assert np.all(pic.ravel()[grid.valid] != 0.0)

    def test_reconstruct_from_cache(self, att_cfg, tmp_path):
        """A reconstruct through a factor cache rebuilds h inside from the
        recorded recipe and writes the picture of a run without the cache;
        a cache that records no recipe exits 2."""
        out = tmp_path / "fw"
        assert main(["forward", "--config", att_cfg, "--out", str(out), "--attenuated"]) == 0
        sino = str(out / "sinogram.bin")
        assert main(["reconstruct", "--config", att_cfg, "--out", str(tmp_path / "r0"),
                     sino]) == 0
        cache = tmp_path / "factors.bin"
        assert main(["factors", "--config", att_cfg, "--out", str(tmp_path / "fa"),
                     "--factors-cache", str(cache)]) == 0
        assert main(["reconstruct", "--config", att_cfg, "--out", str(tmp_path / "r1"),
                     "--factors-cache", str(cache), sino]) == 0
        for name in ("reconstruction.csv", "recon_report.json"):
            assert (tmp_path / "r0" / name).read_bytes() == (tmp_path / "r1" / name).read_bytes()

        with open(cache, "rb") as fh:
            header = json.loads(fh.readline())
            payload = fh.read()
        for key in ("checksum", "s_samples"):
            del header[key]
        aio._write_container(str(cache), header, payload)
        assert main(["check", "--config", att_cfg, "--out", str(tmp_path / "chk"),
                     "--factors-cache", str(cache), sino]) == 0
        assert main(["reconstruct", "--config", att_cfg, "--out", str(tmp_path / "r2"),
                     "--factors-cache", str(cache), sino]) == 2

    @pytest.mark.parametrize("command, amplitude", [("factors", 1e4), ("forward", -1e4)])
    def test_overflowing_attenuation_exits_three(self, tmp_path, capsys, command, amplitude):
        """e^{-+h} past the largest float (a strong `a`) in the factors, and
        e^{-Da} past it in the forward (a strongly negative `a`), are
        numeric failures, not tracebacks or non-finite outputs."""
        cfg = write_config(tmp_path / "strong.json", phantoms={
            "f": {"name": "poly-bump"},
            "a": {"name": "poly-bump", "params": {"amplitude": amplitude}}})
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv + (["--attenuated"] if command == "forward" else [])) == 3
        assert "overflows" in capsys.readouterr().err

    def test_cache_attenuation_mismatch_exits_two(self, att_cfg, tmp_path):
        cache = tmp_path / "factors.bin"
        assert main(["factors", "--config", att_cfg, "--out",
                     str(tmp_path / "fa"), "--factors-cache", str(cache)]) == 0
        out = tmp_path / "fw"
        assert main(["forward", "--config", att_cfg, "--out", str(out),
                     "--attenuated"]) == 0
        other = write_config(
            tmp_path / "other.json",
            phantoms={"f": {"name": "poly-bump"},
                      "a": {"name": "poly-bump", "params": {"amplitude": 0.3}}},
        )
        assert main(["check", "--config", other, "--out",
                     str(tmp_path / "chk"), "--factors-cache", str(cache),
                     str(out / "sinogram.bin")]) == 2

    def _cache_and_sinogram(self, att_cfg, tmp_path):
        cache = tmp_path / "factors.bin"
        assert main(["factors", "--config", att_cfg, "--out",
                     str(tmp_path / "fa"), "--factors-cache", str(cache)]) == 0
        out = tmp_path / "fw"
        assert main(["forward", "--config", att_cfg, "--out", str(out),
                     "--attenuated"]) == 0
        return str(cache), str(out / "sinogram.bin")

    @staticmethod
    def _other_config(tmp_path, **override):
        return write_config(
            tmp_path / "other.json",
            phantoms={"f": {"name": "poly-bump"},
                      "a": {"name": "poly-bump", "params": {"amplitude": 0.2}}},
            **override,
        )

    @pytest.mark.parametrize("command", ["check", "reconstruct"])
    @pytest.mark.parametrize("override", [{"tolerances": {"s_samples": 256}},
                                          {"tolerances": {"s_samples": 1024}}])
    def test_cache_recipe_mismatch_exits_two(self, att_cfg, tmp_path, capsys, command,
                                             override):
        """A cache built with fewer or more s_samples, the recipe of h
        inside, is refused rather than used in place of the config's."""
        cache, sino = self._cache_and_sinogram(att_cfg, tmp_path)
        other = self._other_config(tmp_path, **override)
        capsys.readouterr()
        assert main([command, "--config", other, "--out", str(tmp_path / "run"),
                     "--factors-cache", cache, sino]) == 2
        assert "s_samples" in capsys.readouterr().err

    def test_cache_serves_other_quad(self, att_cfg, tmp_path):
        """h reads no quadrature, so a cache built with quad 4 x 4 serves a
        quad 8 x 8 config: check and reconstruct write the bytes of a run
        that builds its own factors."""
        cache, sino = self._cache_and_sinogram(att_cfg, tmp_path)
        other = self._other_config(tmp_path, quad={"panels": 8, "points": 8})
        for command, name in (("check", "residual.json"),
                              ("reconstruct", "reconstruction.csv")):
            outputs = []
            for tag, extra in (("cached", ["--factors-cache", cache]), ("built", [])):
                out = tmp_path / (command + tag)
                assert main([command, "--config", other, "--out", str(out)] + extra
                            + [sino]) == 0
                outputs.append((out / name).read_bytes())
            assert outputs[0] == outputs[1]

    # Off the disk the factors' negative modes and identity defect fall
    # below the default tolerances only with more angles and a weaker map.
    OFF_DISK_ATT = {
        "modes": {"n": 8, "angles": 128},
        "quad": {"panels": 8, "points": 8},
        "phantoms": {"f": {"name": "poly-bump"},
                     "a": {"name": "poly-bump", "params": {"amplitude": 0.05}}},
        "tolerances": {"s_samples": 2048},
    }

    def _check_with_other_cache(self, tmp_path, run_cfg, cache_cfg, capsys):
        """Exit code of an attenuated check of run_cfg's data against
        a factor cache built with cache_cfg."""
        cache = tmp_path / "factors.bin"
        assert main(["factors", "--config", cache_cfg, "--out",
                     str(tmp_path / "fa"), "--factors-cache", str(cache)]) == 0
        out = tmp_path / "fw"
        assert main(["forward", "--config", run_cfg, "--out", str(out),
                     "--attenuated"]) == 0
        capsys.readouterr()
        code = main(["check", "--config", run_cfg, "--out", str(tmp_path / "chk"),
                     "--factors-cache", str(cache), str(out / "sinogram.bin")])
        assert "another" in capsys.readouterr().err
        return code

    def test_cache_of_another_ellipse_exits_two(self, tmp_path, capsys):
        def ellipse(name, a):
            return write_config(tmp_path / name,
                                boundary={"kind": "ellipse", "a": a, "b": 1.0},
                                **self.OFF_DISK_ATT)

        assert self._check_with_other_cache(
            tmp_path, ellipse("run.json", 1.5), ellipse("cache.json", 2.0), capsys) == 2

    def test_cache_of_another_table_exits_two(self, tmp_path, capsys):
        run = TestTableBoundary._table_config(tmp_path, "run", 1.5, **self.OFF_DISK_ATT)
        other = TestTableBoundary._table_config(tmp_path, "other", 1.3, **self.OFF_DISK_ATT)
        assert self._check_with_other_cache(tmp_path, run, other, capsys) == 2


class TestSweepCommand:
    def test_modes_ladder_csv(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", sweep={"values": [4, 8]})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "modes"]) == 0
        lines = (out / "sweep_modes.csv").read_text().strip().splitlines()
        assert lines[0] == "resolution,residual,recon_error,runtime"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [4, 8]
        residuals = [float(r[1]) for r in rows]
        errors = [float(r[2]) for r in rows]
        # residuals sit at the quadrature floor on both rungs; the
        # reconstruction error is what the extra modes actually buy
        assert all(r < 0.01 for r in residuals)
        assert errors[1] < 0.01 * errors[0]
        assert all(float(r[3]) > 0.0 for r in rows)

    def test_attenuated_rung_matches_cycle(self, tmp_path):
        """A sweep rung reports what forward, check and reconstruct report."""
        cfg = write_config(
            tmp_path / "run.json", grid={"nx": 16, "ny": 16},
            phantoms={"f": {"name": "poly-bump"},
                      "a": {"name": "poly-bump", "params": {"amplitude": 0.3}}},
            sweep={"values": [8]},
        )
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--attenuated", "modes"]) == 0
        rows = (out / "sweep_modes.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 1
        _, residual, recon_error, _ = rows[0].split(",")

        fw = tmp_path / "fw"
        assert main(["forward", "--config", cfg, "--out", str(fw),
                     "--attenuated"]) == 0
        sino = str(fw / "sinogram.bin")
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "chk"),
                     sino]) == 0
        assert main(["reconstruct", "--config", cfg, "--out",
                     str(tmp_path / "rec"), sino]) == 0
        with open(tmp_path / "chk" / "residual.json") as fh:
            check = json.load(fh)
        with open(tmp_path / "rec" / "recon_report.json") as fh:
            recon = json.load(fh)
        assert check["attenuated"] and recon["attenuated"]
        assert residual == "%.12g" % check["relative"]
        assert recon_error == "%.12g" % recon["relative_l2_error"]

    @pytest.mark.parametrize("attenuated", [False, True], ids=["plain", "attenuated"])
    def test_one_range_test_per_rung(self, tmp_path, monkeypatch, attenuated):
        """A rung's residual and its reconstruct share one range test: one
        S and G build at the nodes per rung."""
        calls = []
        boundary_S_G = bukhgeim._boundary_S_G

        def counted(g, with_g=True):
            calls.append(g.boundary.n_nodes)
            return boundary_S_G(g, with_g)

        monkeypatch.setattr(bukhgeim, "_boundary_S_G", counted)
        cfg = write_config(tmp_path / "run.json", grid={"nx": 12, "ny": 12},
                           phantoms={"f": {"name": "poly-bump"},
                                     "a": {"name": "poly-bump", "params": {"amplitude": 0.2}}},
                           sweep={"values": [64, 128]})
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "sw"), "nodes"]
        assert main(argv + (["--attenuated"] if attenuated else [])) == 0
        assert calls == [64, 128]

    def test_plain_quad_rungs_identical(self, tmp_path):
        """A plain poly-bump forward takes one exact panel per chord, so the
        quad rungs do not differ."""
        cfg = write_config(tmp_path / "run.json", grid={"nx": 16, "ny": 16},
                           sweep={"values": [2, 8]})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out), "quad"]) == 0
        rows = [line.split(",") for line in
                (out / "sweep_quad.csv").read_text().strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [2, 8]
        assert rows[0][1:3] == rows[1][1:3]

    def test_attenuated_quad_ladder(self, tmp_path):
        """Each rung's forward integrates f e^{-Da} on its panels; Da of the
        poly-bump map is exact on every rung."""
        cfg = write_config(
            tmp_path / "run.json", grid={"nx": 24, "ny": 24},
            phantoms={"f": {"name": "poly-bump"},
                      "a": {"name": "poly-bump", "params": {"amplitude": 0.3}}},
            sweep={"values": [2, 4, 8]},
        )
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--attenuated", "quad"]) == 0
        rows = [line.split(",") for line in
                (out / "sweep_quad.csv").read_text().strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [2, 4, 8]
        gate = load_config(cfg).residual_gate
        assert all(float(r[1]) < gate for r in rows)

    def test_failing_rung_keeps_partial_csv(self, tmp_path, capsys):
        # second rung violates the angular sampling requirement
        cfg = write_config(tmp_path / "run.json", sweep={"values": [8, 400]})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "modes"]) == 3
        lines = (out / "sweep_modes.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header plus the completed rung
        assert lines[1].startswith("8,")
        assert "rung modes=400 failed" in capsys.readouterr().err


    def test_margin_rung_keeps_partial_csv(self, tmp_path, capsys):
        """A nodes rung whose 3h passes the configured grid margin fails as
        a rung, as a too-coarse angle rung does: exit 3, the rungs before
        it kept."""
        cfg = write_config(tmp_path / "run.json", grid={"nx": 16, "ny": 16, "margin": 0.2},
                           sweep={"values": [128, 64]})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out), "nodes"]) == 3
        lines = (out / "sweep_nodes.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("128,")
        assert "rung nodes=64 failed: config.grid.margin" in capsys.readouterr().err


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["forward", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["forward", "--config", str(path),
                     "--out", str(tmp_path)]) == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"boundary": {"kind": "disk"},
                                    "boundry": {}}))
        assert main(["forward", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "boundry" in capsys.readouterr().err

    def test_fractional_sweep_value_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path / "frac.json", sweep={"values": [4.7, 6.2]})
        assert main(["sweep", "--config", path, "--out", str(tmp_path),
                     "modes"]) == 2
        assert "config.sweep.values" in capsys.readouterr().err
        assert load_config(write_config(tmp_path / "whole.json",
                                        sweep={"values": [8.0]})).sweep_values == (8,)

    @pytest.mark.parametrize("section, value, path", [
        ("a", {"name": "gaussian-truncated", "params": {"sigma": "abc"}}, "a.params.sigma"),
        ("a", {"name": "gaussian-truncated", "params": {"sigma": 0}}, "a.params.sigma"),
        ("a", {"name": "gaussian-truncated", "params": {"center": 0.1}}, "a.params.center"),
        ("a", {"name": "gaussian-truncated", "params": {"center": [0.1, 0, 0]}},
         "a.params.center"),
        ("a", {"name": "poly-bump", "params": {"amplitude": [1]}}, "a.params.amplitude"),
        ("a", {"name": "poly-bump", "params": {"amplitud": 0.3}},
         "a.params: unknown keys ['amplitud']"),
        ("a", {"name": "shifted-poly-bump", "params": {"radius": 0}}, "a.params.radius"),
        ("a", {"name": "shifted-poly-bump", "params": {"radius": -0.3}}, "a.params.radius"),
        ("f", {"name": "poly-bump", "params": {"amplitude": "@NaN"}}, "f.params.amplitude"),
        ("a", {"name": "poly-bump", "params": {"amplitude": "@Infinity"}},
         "a.params.amplitude"),
        ("tolerances", {"tol_neg": "@1e400"}, "config.tolerances.tol_neg"),
        ("boundary", {"kind": "ellipse", "n_nodes": 64, "a": "@NaN"}, "config.boundary.a"),
        ("boundary", {"kind": "ellipse", "n_nodes": 64, "a": 0}, "config.boundary.a: must be > 0"),
        ("boundary", {"kind": "ellipse", "n_nodes": 64, "b": 0.0},
         "config.boundary.b: must be > 0"),
        ("boundary", {"kind": "ellipse", "n_nodes": 64, "a": -1.5}, "config.boundary.a: must be > 0"),
        ("boundary", {"table_path": 7}, "config.boundary.table_path: expected a string"),
        ("boundary", {"kind": "table", "n_nodes": 64, "table_path": ["a.csv"]},
         "config.boundary.table_path: expected a string"),
        ("io", {"out_dir": 5}, "config.io.out_dir: expected a string"),
        ("io", {"out_dir": None}, "config.io.out_dir: expected a string"),
    ])
    def test_bad_value_exits_two(self, tmp_path, capsys, section, value, path):
        """Each value names its key path and exits 2; "@x" writes the JSON
        literal x, which json reads as a non-finite float."""
        if section in ("f", "a"):
            phantoms = {"f": {"name": "poly-bump"}}
            phantoms[section] = value
            cfg = write_config(tmp_path / "bad.json", phantoms=phantoms)
        else:
            cfg = write_config(tmp_path / "bad.json", **{section: value})
        with open(cfg) as fh:
            text = fh.read()
        for literal in ("NaN", "Infinity", "1e400"):
            text = text.replace('"@%s"' % literal, literal)
        with open(cfg, "w") as fh:
            fh.write(text)
        assert main(["forward", "--config", cfg, "--out", str(tmp_path / "fw"),
                     "--attenuated"]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["f", "a"])
    def test_leaking_support_exits_two(self, tmp_path, capsys, section):
        """A support disk that leaks out of the domain is a config error, also
        in a sweep, whose rungs all share it; the message gives its centre
        as plain numbers."""
        phantoms = {"f": {"name": "poly-bump"}}
        phantoms[section] = {"name": "shifted-poly-bump",
                             "params": {"center": [0.9, 0.0], "radius": 0.55}}
        cfg = write_config(tmp_path / "leak.json", phantoms=phantoms)
        for argv in (["forward"], ["sweep", "modes"]):
            assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out"),
                                "--attenuated"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "support disk (center (0.9, 0.0), radius 0.55) leaks" in err

    @pytest.mark.parametrize("argv", [
        ["phantom", "--factors-cache", "x"],
        ["forward", "--factors-cache", "x"],
        ["sweep", "--factors-cache", "x", "modes"],
        ["factors", "--attenuated"],
    ], ids=["phantom", "forward", "sweep", "factors"])
    def test_unread_flag_is_usage_error(self, cfg_path, argv):
        """A subcommand takes only the flags it reads."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", cfg_path])
        assert exc.value.code == 2

    def test_angles_too_few_for_modes(self, tmp_path):
        path = write_config(tmp_path / "coarse.json",
                            modes={"n": 32, "angles": 32})
        assert main(["forward", "--config", path,
                     "--out", str(tmp_path)]) == 2


class TestConfigDefaults:
    """The defaults README's key table documents, every attribute of a
    RunConfig but `raw`."""

    DEFAULTS = {
        "boundary_kind": "disk", "n_nodes": 512, "boundary_a": 1.0, "boundary_b": 1.0,
        "table_path": "", "n_modes": 32, "n_angles": 128, "quad_panels": 8,
        "quad_points": 8, "grid_nx": 64, "grid_ny": 64, "grid_margin": None,
        "phantom_f": {"name": "poly-bump", "params": {}},
        "phantom_a": {"name": "zero", "params": {}},
        "out_dir": ".", "residual_gate": 0.01, "recon_gate": 0.05, "tol_neg": 1e-6,
        "tol_identity": 1e-8, "s_samples": 2048, "error_radius": 0.9, "sweep_values": (),
    }

    @staticmethod
    def _fields(cfg):
        return {key: val for key, val in vars(cfg).items() if key != "raw"}

    def test_empty_config(self):
        assert self._fields(parse_config({})) == self.DEFAULTS

    def test_readme_minimal_config(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme) as fh:
            text = fh.read()
        doc = json.loads(re.search(r"A minimal one:\s*```json\n(.*?)```", text, re.S).group(1))
        expected = dict(self.DEFAULTS,
                        phantom_a={"name": "poly-bump", "params": {"amplitude": 0.3}})
        assert self._fields(parse_config(doc)) == expected


def _halve_angles(header, payload):
    header["n_angles"] //= 2
    return payload


def _drop_beta_block(header, payload):
    offset = 0
    for i, blk in enumerate(header["blocks"]):
        nbytes = int(np.prod(blk["shape"])) * np.dtype(blk["dtype"]).itemsize
        if blk["name"] == "beta":
            del header["blocks"][i]
            return payload[:offset] + payload[offset + nbytes:]
        offset += nbytes
    raise AssertionError("the cache has no beta block")


def _halve_nodes(header, payload):
    """n_nodes and payload of half the nodes, against a descriptor of all."""
    header["n_nodes"] //= 2
    return payload[:len(payload) // 2]


def _grow_first_block(header, payload):
    header["blocks"][0]["shape"][0] += 1
    return payload


def _drop_n_modes(header, payload):
    del header["n_modes"]
    return payload


def _drop_boundary_kind(header, payload):
    del header["boundary"]["kind"]
    return payload


def _fractional_s_samples(header, payload):
    header["s_samples"] = 512.5
    return payload


def _drop_block_key(key):
    def edit(header, payload):
        del header["blocks"][1][key]
        return payload
    return edit


class TestMalformedContainer:
    """The payload checksum does not cover the header; a header that
    contradicts its payload or lacks a key is a file-format error."""

    @pytest.mark.parametrize("target, edit", [
        ("sinogram", _halve_angles),
        ("sinogram", _halve_nodes),
        ("cache", _drop_beta_block),
        ("cache", _grow_first_block),
        ("cache", _drop_n_modes),
        ("sinogram", _drop_boundary_kind),
        ("cache", _drop_boundary_kind),
        ("cache", _fractional_s_samples),
        ("cache", _drop_block_key("name")),
        ("cache", _drop_block_key("shape")),
        ("cache", _drop_block_key("dtype")),
    ], ids=["sinogram-angles", "sinogram-nodes", "cache-no-beta", "cache-block-past-payload",
            "cache-no-n-modes", "sinogram-boundary-no-kind", "cache-boundary-no-kind",
            "cache-fractional-s-samples", "cache-block-no-name", "cache-block-no-shape",
            "cache-block-no-dtype"])
    def test_header_edit_exits_two(self, tmp_path, capsys, target, edit):
        cfg = write_config(
            tmp_path / "att.json",
            phantoms={"f": {"name": "poly-bump"},
                      "a": {"name": "poly-bump", "params": {"amplitude": 0.2}}},
        )
        cache = tmp_path / "factors.bin"
        assert main(["factors", "--config", cfg, "--out", str(tmp_path / "fa"),
                     "--factors-cache", str(cache)]) == 0
        assert main(["forward", "--config", cfg, "--out", str(tmp_path / "fw"),
                     "--attenuated"]) == 0
        sino = tmp_path / "fw" / "sinogram.bin"
        path = sino if target == "sinogram" else cache
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            payload = fh.read()
        payload = edit(header, payload)
        del header["checksum"]  # the writer puts the payload's own back
        aio._write_container(str(path), header, payload)
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "chk"),
                     "--factors-cache", str(cache), str(sino)]) == 2
        assert str(path) in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_forward_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        env = dict(os.environ, ARADON_THREADS="1")
        blobs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "aradon", "forward",
                 "--config", cfg, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert "gauge zero" in proc.stdout
            blobs.append((out / "sinogram.bin").read_bytes())
        assert blobs[0] == blobs[1]
