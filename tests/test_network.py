"""Topology, mixing-matrix, and assumption-validation contracts."""

import numpy as np
import pytest

from exlg.linalg import sym_eig
from exlg.network import (
    Topology,
    build_mixing_set,
    build_w,
    build_w_tilde,
    disconnected,
    fully_connected,
    laplacian,
    make_topology,
    ring,
    star,
    topology_from_file,
    validate_assumptions,
    with_h,
)


class TestTopology:
    def test_star_hub_is_agent_zero(self):
        t = star(4)
        assert t.adjacency[0].sum() == 3.0
        assert t.adjacency[1, 2] == 0.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            disconnected(1)

    def test_n_is_the_adjacency_size(self):
        t = Topology([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        assert t.n == 3
        assert t.adjacency.dtype == float
        assert not t.adjacency.flags.writeable
        assert ring(7).n == 7

    @pytest.mark.parametrize("a,match", [
        (np.zeros((2, 3)), r"square, got shape \(2, 3\)"),
        (np.zeros(4), r"square, got shape \(4,\)"),
        (np.zeros((1, 1)), "need at least 2 agents, got 1"),
    ], ids=["2x3", "vector", "1x1"])
    def test_rejects_bad_shape(self, a, match):
        with pytest.raises(ValueError, match=match):
            Topology(a)

    def test_custom_rejects_asymmetric(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            Topology(a)

    def test_custom_rejects_self_loop(self):
        a = np.eye(3)
        with pytest.raises(ValueError, match="diagonal"):
            Topology(a)

    def test_custom_rejects_weights(self):
        a = np.zeros((2, 2))
        a[0, 1] = a[1, 0] = 0.5
        with pytest.raises(ValueError, match="0 or 1"):
            Topology(a)

    def test_from_file_round_trip(self, tmp_path):
        t = ring(5)
        path = tmp_path / "adj.txt"
        body = "5\n" + "\n".join(
            " ".join(str(int(v)) for v in row) for row in t.adjacency
        )
        path.write_text(body + "\n")
        loaded = topology_from_file(path)
        assert np.array_equal(loaded.adjacency, t.adjacency)

    def test_from_file_bad_count(self, tmp_path):
        path = tmp_path / "adj.txt"
        path.write_text("3\n0 1\n1 0\n")
        with pytest.raises(ValueError):
            topology_from_file(path)

    @pytest.mark.parametrize("body,message", [
        ("3\n0 1 0\n1 0\n0 1 0\n", "row 2 of 3 has 2 entries"),
        ("3\n0 1 0\n1 0 1\n0 y 0\n",
         "row 3: could not convert string to float: 'y'"),
    ], ids=["ragged", "non-numeric"])
    def test_from_file_row_errors_name_the_file(self, tmp_path, body,
                                                message):
        path = tmp_path / "adj.txt"
        path.write_text(body)
        with pytest.raises(ValueError) as info:
            topology_from_file(path)
        assert str(info.value) == f"adjacency file {path}: {message}"

    def test_from_file_is_checked_like_any_adjacency(self, tmp_path):
        path = tmp_path / "adj.txt"
        path.write_text("3\n0 1 0\n0 0 1\n0 1 0\n")
        with pytest.raises(ValueError, match="adjacency must be symmetric"):
            topology_from_file(path)


class TestLaplacian:
    def test_disconnected_is_zero(self):
        assert np.array_equal(laplacian(disconnected(4)), np.zeros((4, 4)))

    def test_star_n3(self):
        expect = np.array(
            [[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]
        )
        assert np.array_equal(laplacian(star(3)), expect)

    def test_ring3_equals_fc3(self):
        expect = np.array(
            [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
        )
        assert np.array_equal(laplacian(ring(3)), expect)
        assert np.array_equal(laplacian(fully_connected(3)), expect)


class TestBuildW:
    def test_star_example(self):
        w = build_w(star(3), delta=0.25)[0]
        expect = np.array(
            [[0.5, 0.25, 0.25], [0.25, 0.75, 0.0], [0.25, 0.0, 0.75]]
        )
        assert np.allclose(w, expect, atol=1e-15)

    def test_disconnected_identity(self):
        assert np.allclose(build_w(disconnected(5), delta=0.3)[0], np.eye(5))

    def test_delta_out_of_range(self):
        t = ring(4)
        lam_max = sym_eig(laplacian(t))[0][-1]
        with pytest.raises(ValueError, match="delta"):
            build_w(t, delta=2.0 / lam_max)
        with pytest.raises(ValueError, match="delta"):
            build_w(t, delta=-0.1)

    def test_drawn_delta_deterministic_and_in_range(self):
        t = ring(6)
        lam_max = sym_eig(laplacian(t))[0][-1]
        d1 = build_w(t, None, seed=42)[1]
        d2 = build_mixing_set(t, h=0.3, delta=None, seed=42).delta
        assert d1 == d2
        assert 0.05 / lam_max < d1 < 0.95 / lam_max


class TestBuildWTilde:
    def test_half_is_lazy_average(self):
        w = build_w(ring(5), delta=0.2)[0]
        wt = build_w_tilde(w, 0.5)
        assert np.allclose(wt, (np.eye(5) + w) / 2.0, atol=1e-15)

    def test_identity_fixed_point(self):
        wt = build_w_tilde(np.eye(4), 0.3)
        assert np.allclose(wt, np.eye(4), atol=1e-15)

    def test_ring_formula(self):
        w = build_w(ring(6), delta=0.15)[0]
        wt = build_w_tilde(w, 0.38)
        assert np.allclose(wt, 0.38 * np.eye(6) + 0.62 * w, atol=1e-15)

    def test_h_range_enforced(self):
        w = build_w(ring(4), delta=0.2)[0]
        for h in (0.0, -0.1, 0.51, 1.0):
            with pytest.raises(ValueError):
                build_w_tilde(w, h)


class TestMixingSet:
    def test_u_is_h_times_i_minus_w(self):
        ms = build_mixing_set(ring(6), h=0.38, delta=0.2)
        assert np.allclose(ms.u, 0.38 * (np.eye(6) - ms.w), atol=1e-14)

    @pytest.mark.parametrize("builder", [ring, star, fully_connected])
    @pytest.mark.parametrize("h0, h1", [(0.38, 0.013), (0.05, 0.5)])
    def test_with_h_equals_a_fresh_build(self, builder, h0, h1):
        top = builder(7)
        delta = build_w(top, None, 11)[1]
        moved = with_h(build_mixing_set(top, h=h0, delta=delta), h1)
        fresh = build_mixing_set(top, h=h1, delta=delta)
        for field in ("w", "w_tilde", "u"):
            assert np.array_equal(getattr(moved, field),
                                  getattr(fresh, field)), field
        assert (moved.h, moved.delta) == (fresh.h, fresh.delta)
        assert moved.spectral == fresh.spectral

    def test_with_h_solves_only_w_tilde(self, monkeypatch):
        ms = build_mixing_set(ring(6), h=0.3, delta=0.2)
        seen = []
        monkeypatch.setattr("exlg.network.sym_eig",
                            lambda a: seen.append(a) or sym_eig(a))
        moved = with_h(ms, 0.1)
        assert len(seen) == 1 and np.array_equal(seen[0], moved.w_tilde)
        assert moved.w is ms.w

    def test_fc20_passes_validation(self):
        top = fully_connected(20)
        ms = build_mixing_set(top, h=0.5, delta=build_w(top, None, 3)[1])
        report = validate_assumptions(ms)
        assert report.ok, [c.name for c in report.failed()]


class TestValidateAssumptions:
    def test_disconnected_null_space_fails(self):
        top = disconnected(5)
        ms = build_mixing_set(top, h=0.3, delta=build_w(top, None, 0)[1])
        report = validate_assumptions(ms)
        assert not report.ok
        failed = {c.name: c for c in report.failed()}
        assert "null-space" in failed
        assert "dim null(U) = 5," in failed["null-space"].detail

    @pytest.mark.parametrize("n, h", [(20, 1e-12), (50, 3.4e-23)])
    def test_null_space_floor_scales_with_h(self, n, h):
        # U = h (I - W): at tiny h only the ones direction is null
        ms = build_mixing_set(ring(n), h=h, delta=0.125)
        null = {c.name: c for c in validate_assumptions(ms).checks}
        assert null["null-space"].passed
        assert "dim null(U) = 1," in null["null-space"].detail

    def test_failing_report_text(self):
        # an edgeless graph: W = W~ = I and U = 0, so every figure is exact
        top = disconnected(5)
        ms = build_mixing_set(top, h=0.3, delta=build_w(top, None, 0)[1])
        assert validate_assumptions(ms).lines() == [
            "[pass] doubly-stochastic: max row/col sum deviation 0.000e+00 "
            "(tol 1e-12)",
            "[pass] diagonal-positive: min W_ii = 1",
            "[pass] offdiagonal-nonnegative: min W_ij (i != j) = 0",
            "[pass] w-spectrum: eig(W) in [1, 1], required within (-1, 1]",
            "[pass] wt-positive-definite: min eig(W~) = 1, required > 0",
            "[pass] psd-order-upper: min eig((I+W)/2 - W~) = 0.000e+00 "
            "(>= -1e-10)",
            "[pass] psd-order-lower: min eig(W~ - W) = 0.000e+00 (>= -1e-10)",
            "[FAIL] null-space: dim null(U) = 5, required exactly 1 "
            "(span of ones)",
            "[pass] ones-in-null: max |U 1|/sqrt(n) = 0.000e+00 (<= 1e-10)",
        ]

    def test_report_lines_name_each_clause(self):
        ms = build_mixing_set(ring(4), h=0.25, delta=0.2)
        lines = validate_assumptions(ms).lines()
        assert any("doubly-stochastic" in ln for ln in lines)
        assert all(ln.startswith("[pass]") for ln in lines)


class TestMixingInvariants:
    """Grid over topology x size x h: every standing assumption holds."""

    @pytest.mark.parametrize("builder", [fully_connected, ring, star])
    @pytest.mark.parametrize("n", [3, 6, 20])
    @pytest.mark.parametrize("h", [0.001, 0.13, 0.38, 0.5])
    def test_grid(self, builder, n, h):
        top = builder(n)
        ms = build_mixing_set(
            top, h=h, delta=build_w(top, None, n * 1000 + int(h * 1000))[1])
        report = validate_assumptions(ms)
        assert report.ok, [c.detail for c in report.failed()]

        # Eigenvalue transport: lam_i(W~) = h + (1-h) lam_i(W).
        wv, _ = sym_eig(ms.w)
        wtv, _ = sym_eig(ms.w_tilde)
        assert np.max(np.abs(wtv - (h + (1.0 - h) * wv))) <= 1e-10

        sp = ms.spectral
        assert sp.gammabar_iw >= 1.0 - sp.gammabar_w - 1e-12
        assert 0.0 <= sp.gammabar_w < 1.0
        assert 0.0 < sp.gammabar_wt <= 1.0

    def test_make_topology_dispatch(self):
        with pytest.raises(ValueError):
            make_topology("custom", 5)
