"""File-format round trips: binary containers, CSV exports, caches."""
import csv
import json

import numpy as np
import pytest

from aradon import io as aio
from aradon.attenuation import build_h
from aradon.bukhgeim import CartesianGrid
from aradon.errors import ConfigError, GridMismatch
from aradon.geometry import make_boundary
from aradon.harmonics import AngularGrid
from aradon.io import (
    read_boundary_table,
    read_factors_cache,
    read_field_csv,
    read_sinogram,
    sinogram_to_csv,
    write_factors_cache,
    write_field_csv,
    write_residual_report,
    write_sinogram,
)
from aradon.xray import forward_sinogram, phantom


class TestSinogram:
    def test_round_trip_with_hash(self, tmp_path, polybump_sino):
        p = tmp_path / "sino.bin"
        write_sinogram(p, polybump_sino, config_hash="abc123")
        back = read_sinogram(p)
        assert np.array_equal(back.data, polybump_sino.data)
        assert back.attenuated == polybump_sino.attenuated
        assert back.meta.get("config_hash") == "abc123"
        assert back.angular.n_angles == polybump_sino.angular.n_angles

    def test_checksum_detects_corruption(self, tmp_path, polybump_sino):
        p = tmp_path / "sino.bin"
        write_sinogram(p, polybump_sino)
        blob = bytearray(p.read_bytes())
        blob[-5] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(ConfigError):
            read_sinogram(p)

    def test_csv_export_parses_back(self, tmp_path, disk256):
        ang = AngularGrid(16)
        sino = forward_sinogram(
            phantom("poly-bump", disk256), phantom("zero", disk256), disk256, ang
        )
        p = tmp_path / "sino.csv"
        sinogram_to_csv(p, sino)
        rows = np.loadtxt(p, delimiter=",", skiprows=1)
        assert rows.shape == (256 * 16, 6)
        # columns: node_index, angle_index, z_x, z_y, phi, value
        k = 37
        i, j = int(rows[k, 0]), int(rows[k, 1])
        assert rows[k, 5] == sino.data[i, j]
        assert abs(rows[k, 4] - ang.angles[j]) < 1e-15
        assert np.allclose(rows[k, 2:4], disk256.positions[i], atol=1e-15)


def _csv_writer_bytes(path, head, rows):
    """The file csv.writer makes of `head` and the rows, for the writers'
    byte-for-byte reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(head)
        writer.writerows(rows)
    return path.read_bytes()


class TestCsvBytes:
    """Both CSV writers give the bytes of csv.writer on "%.17g" strings."""

    def test_field(self, tmp_path):
        xs = np.linspace(-1.5, 1.5, 9)
        ys = np.array([-1.0, -0.0, 1e-300, 0.7])
        pic = np.random.default_rng(2).standard_normal((4, 9)) * 10.0 ** np.linspace(-150, 200, 9)
        pic[0, :5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
        write_field_csv(tmp_path / "new.csv", xs, ys, pic)
        rows = [["%.17g" % x, "%.17g" % y, "%.17g" % pic[iy, ix]]
                for iy, y in enumerate(ys) for ix, x in enumerate(xs)]
        ref = _csv_writer_bytes(tmp_path / "ref.csv", ["x", "y", "value"], rows)
        assert (tmp_path / "new.csv").read_bytes() == ref

    def test_sinogram(self, tmp_path, disk256):
        sino = forward_sinogram(
            phantom("poly-bump", disk256), phantom("zero", disk256), disk256, AngularGrid(16)
        )
        sinogram_to_csv(tmp_path / "new.csv", sino)
        pos, angles = disk256.positions, sino.angular.angles
        rows = [[i, j, "%.17g" % pos[i, 0], "%.17g" % pos[i, 1], "%.17g" % angles[j],
                 "%.17g" % sino.data[i, j]] for i in range(256) for j in range(16)]
        head = ["node_index", "angle_index", "z_x", "z_y", "phi", "value"]
        assert (tmp_path / "new.csv").read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv", head, rows)


class TestFieldCsv:
    def test_round_trip(self, tmp_path):
        xs = np.linspace(-1, 1, 5)
        ys = np.linspace(-1, 1, 7)
        pic = np.arange(35, dtype=float).reshape(7, 5)
        p = tmp_path / "field.csv"
        write_field_csv(p, xs, ys, pic)
        bx, by, bpic = read_field_csv(p)
        assert np.allclose(bx, xs)
        assert np.allclose(by, ys)
        assert np.allclose(bpic, pic)


class TestResidualReport:
    def test_json_contents(self, tmp_path, polybump_trace):
        from aradon.bukhgeim import range_residual_0
        import json

        res = range_residual_0(polybump_trace)
        p = tmp_path / "residual.json"
        write_residual_report(p, res, extra={"config_hash": "deadbeef"})
        doc = json.loads(p.read_text())
        assert doc["config_hash"] == "deadbeef"
        assert doc["relative"] == res.relative
        assert "norm_l1" in doc


_U64 = 2.0 * np.pi * np.arange(64) / 64


@pytest.fixture(scope="module")
def factor_cases(disk256):
    """Factors on the disk, the 1.5 x 1 ellipse and a 64-point table of
    that ellipse, and grid points inside each.

    Off the disk the attenuation is weak enough for build_h's gates, as
    in test_attenuation's pairing cases.
    """
    ellipse = make_boundary("ellipse", 128, a=1.5, b=1.0)
    table = make_boundary("table", 64,
                          table=np.column_stack([1.5 * np.cos(_U64), np.sin(_U64)]))
    cases = []
    for b, amp in ((disk256, 0.3), (ellipse, 0.005), (table, 0.005)):
        ang = AngularGrid(64)
        a = phantom("poly-bump", b, params={"amplitude": amp})
        cases.append({"boundary": b, "ang": ang, "factors": build_h(a, b, ang, 8),
                      "points": CartesianGrid(b, 12, 11, margin=0.1).points})
    return cases


def _assert_same_factors(back, fac):
    assert np.array_equal(back.alpha, fac.alpha)
    assert np.array_equal(back.beta, fac.beta)
    assert back.a_info == json.loads(json.dumps(fac.a_info))
    assert back.s_samples == fac.s_samples


def _header(path):
    with open(path, "rb") as fh:
        return json.loads(fh.readline())


def _round_trip(path, case):
    fac = case["factors"]
    write_factors_cache(path, fac)
    back = read_factors_cache(path, boundary=case["boundary"], angular=case["ang"])
    _assert_same_factors(back, fac)
    assert back.boundary is case["boundary"]
    return back


def _ellipse_table(a, n_nodes):
    """The spline through 48 points of the a x 1 ellipse, at n_nodes nodes."""
    u = 2.0 * np.pi * np.arange(48) / 48
    return make_boundary("table", n_nodes, table=np.column_stack([a * np.cos(u), np.sin(u)]))


# case: (written boundary, the run's boundary, the run's angle count, the
# words of the refusal); the file is written with 16 angles
_ELLIPSE = make_boundary("ellipse", 64, a=1.5, b=1.0)
_GRID_MISMATCHES = {
    "node-count": (make_boundary("disk", 64), make_boundary("disk", 128), 16,
                   "unit disk of 64 nodes.*unit disk of 128 nodes"),
    "ellipse-axes": (_ELLIPSE, make_boundary("ellipse", 64, a=2.0, b=1.0), 16,
                     "ellipse a=1.5 b=1.0 .*ellipse a=2.0 b=1.0 "),
    "table": (_ellipse_table(1.5, 64), _ellipse_table(1.3, 64), 16,
              "another boundary \\(boundary table of 64 nodes"),
    "angle-count": (_ELLIPSE, _ELLIPSE, 32, "16 angles, the run uses 32"),
}


class TestFactorsCache:
    def test_boundary_only_round_trip(self, tmp_path, factor_cases):
        for case in factor_cases:
            _round_trip(tmp_path / "factors.bin", case)

    def test_interior_round_trip(self, tmp_path, factor_cases):
        """The sampler of h inside, rebuilt from the recorded recipe on first
        use, gives h and its slopes bit for bit."""
        for case in factor_cases:
            back = _round_trip(tmp_path / "factors.bin", case)
            assert back._sampler is None
            got = back.sampler.at(case["points"], slopes=True)
            for arr, ref in zip(got, case["factors"].sampler.at(case["points"], slopes=True)):
                assert np.array_equal(arr, ref)

    def test_blocks_read_as_views(self, tmp_path, factor_cases):
        """Blocks are writable views of the one payload buffer."""
        for case in factor_cases:
            fac = case["factors"]
            p = tmp_path / "factors.bin"
            write_factors_cache(p, fac)
            back = read_factors_cache(p)
            for arr in (back.alpha, back.beta):
                assert not arr.flags.owndata and arr.flags.writeable
            _assert_same_factors(back, fac)

    def test_no_inside_block(self, tmp_path, factor_cases):
        """The cache holds the boundary factors only, and the recipe of h
        inside in its header."""
        for case in factor_cases:
            p = tmp_path / "factors.bin"
            write_factors_cache(p, case["factors"])
            header = _header(p)
            assert [b["name"] for b in header["blocks"]] == ["alpha", "beta"]
            assert "quad" not in header
            assert header["s_samples"] == 2048
            assert "interior" not in header

    def test_former_quad_entry_not_read(self, tmp_path, factor_cases):
        """Caches once recorded quad next to s_samples; such a cache reads
        with its s_samples, whatever its quad entry holds."""
        for case in factor_cases:
            fac = case["factors"]
            p = tmp_path / "factors.bin"
            write_factors_cache(p, fac)
            with open(p, "rb") as fh:
                header = json.loads(fh.readline())
                payload = fh.read()
            header["quad"] = {"panels": 8}
            del header["checksum"]
            aio._write_container(p, header, payload)
            back = read_factors_cache(p)
            _assert_same_factors(back, fac)
            assert back.s_samples == 2048

    def test_former_h_and_alpha_blocks_still_read(self, tmp_path, factor_cases):
        """A cache of an older layout, which also carries h, the inside mask
        and factors on the inside points of a grid (its `interior` header
        object), in the block order such caches were written in, and no
        recipe, reads with the same boundary factors; the blocks after the
        132 inside bytes, unaligned, are skipped.  Asked for h inside, it
        refuses: a ConfigError, exit 2."""
        for case in factor_cases:
            fac = case["factors"]
            p = tmp_path / "factors.bin"
            write_factors_cache(p, fac)
            header = _header(p)
            rng = np.random.default_rng(3)
            m = fac.angular.n_angles
            p_in = 120

            def noise(*shape):  # the reader skips these blocks' values
                return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

            blocks, payload = aio._block_bytes([
                ("h_boundary", noise(fac.boundary.n_nodes, m), "<c16"),
                ("alpha", fac.alpha, "<c16"),
                ("beta", fac.beta, "<c16"),
                ("inside", np.ones(132, dtype=np.uint8), "<u1"),
                ("h_interior", noise(p_in, m), "<c16"),
                ("alpha_interior", noise(9, p_in), "<c16"),
                ("beta_interior", noise(9, p_in), "<c16"),
                ("a_values", noise(p_in).real, "<f8"),
            ])
            header["blocks"] = blocks
            header["interior"] = {"nx": 12, "ny": 11, "margin": 0.1, "extent": [-1, 1, -1, 1]}
            for key in ("checksum", "s_samples"):
                del header[key]
            old = tmp_path / "old_factors.bin"
            aio._write_container(old, header, payload)
            back = read_factors_cache(old, boundary=case["boundary"], angular=case["ang"])
            for arr, ref in ((back.alpha, fac.alpha), (back.beta, fac.beta)):
                assert np.array_equal(arr, ref)
                assert arr.flags.aligned and arr.flags.writeable
            assert back.s_samples is None and back.interior is None
            with pytest.raises(ConfigError, match="rebuild with `factors`"):
                back.sampler

    def test_wrong_format_rejected(self, tmp_path, polybump_sino):
        p = tmp_path / "sino.bin"
        write_sinogram(p, polybump_sino)
        with pytest.raises(ConfigError):
            read_factors_cache(p)

    @pytest.mark.parametrize("reader", ["sinogram", "factors"])
    @pytest.mark.parametrize("case", sorted(_GRID_MISMATCHES))
    def test_grid_mismatch_on_read(self, tmp_path, case, reader):
        """Both readers refuse a file whose boundary descriptor or angle count
        is not the caller's, and return the caller's own objects otherwise."""
        written, other, other_angles, words = _GRID_MISMATCHES[case]
        ang = AngularGrid(16)
        p = tmp_path / "file.bin"
        if reader == "sinogram":
            write_sinogram(p, forward_sinogram(phantom("poly-bump", written),
                                               phantom("zero", written), written, ang))
            read = read_sinogram
        else:
            write_factors_cache(p, build_h(phantom("zero", written), written, ang, 4))
            read = read_factors_cache
        with pytest.raises(GridMismatch, match=words):
            read(p, other, AngularGrid(other_angles))
        back = read(p, written, ang)
        assert back.boundary is written and back.angular is ang


class TestBoundaryTable:
    def test_read_back_is_the_config_curve(self, tmp_path):
        """A table sinogram read without a boundary rebuilds the config's own
        spline, also when the nodes are not the table's points."""
        b = _ellipse_table(1.5, 100)
        assert len(b.table) == 48
        p = tmp_path / "sino.bin"
        write_sinogram(p, forward_sinogram(phantom("poly-bump", b), phantom("zero", b),
                                           b, AngularGrid(16)))
        back = read_sinogram(p).boundary
        assert back.descriptor() == b.descriptor()
        assert np.array_equal(back.normals, b.normals)
        assert np.array_equal(back.curvatures, b.curvatures)
        th = np.array([[np.cos(0.3), np.sin(0.3)]])
        assert np.array_equal(back.node_chord_lengths(th), b.node_chord_lengths(th))

    def test_csv_reader(self, tmp_path):
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = np.stack([1.3 * np.cos(t), 0.9 * np.sin(t)], axis=1)
        p = tmp_path / "boundary.csv"
        lines = ["# comment", "x,y"] + ["%.17g,%.17g" % (x, y) for x, y in pts]
        p.write_text("\n".join(lines) + "\n")
        table = read_boundary_table(p)
        assert np.allclose(table, pts, atol=0)

    def test_too_short_rejected(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("0,0\n1,0\n")
        with pytest.raises(ConfigError):
            read_boundary_table(p)
