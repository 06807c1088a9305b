"""Geometry of the glued polygon chains."""

import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bouwmoller import surface
from bouwmoller.surface import (NonPositiveShape, Polygon, build_surface,
                                polygon_params, side_length_scale)

SMALL = [(3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4)]


def signed_area(vertices):
    s = 0.0
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        s += x0 * y1 - x1 * y0
    return s / 2


def test_rejects_too_small_parameters():
    with pytest.raises(NonPositiveShape):
        build_surface(1, 3)
    with pytest.raises(NonPositiveShape):
        build_surface(4, 1)
    with pytest.raises(NonPositiveShape):
        build_surface(4, 2)


@pytest.mark.parametrize("a, b", [(float("nan"), 1.0), (1.0, float("inf")),
                                  (-float("inf"), 1.0)])
def test_polygon_rejects_non_finite_sides(a, b):
    with pytest.raises(NonPositiveShape, match="invalid side lengths"):
        Polygon(3, a, b)


def test_polygon_rejects_sides_that_do_not_close():
    # a 2-gon closes only with equal sides
    with pytest.raises(NonPositiveShape, match="do not close"):
        Polygon(1, 1.0, 2.0)


def test_shape_checks_survive_optimized_mode():
    code = ("from bouwmoller.surface import Polygon, NonPositiveShape\n"
            "try:\n    Polygon(3, float('nan'), 1.0)\n"
            "except NonPositiveShape as exc:\n    print('rejected', exc)\n")
    r = subprocess.run([sys.executable, "-O", "-c", code],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("rejected invalid side lengths")


def test_labelling_invariants_raise(monkeypatch):
    real_params, real_exit = surface.polygon_params, surface._exit
    # the last polygon with its side classes swapped: its back sides vanish
    monkeypatch.setattr(surface, "polygon_params", lambda m, n, k:
                        real_params(m, n, k)[::-1] if k == m - 1
                        else real_params(m, n, k))
    with pytest.raises(RuntimeError, match="glued to degenerate edge"):
        build_surface(3, 4)
    monkeypatch.setattr(surface, "polygon_params", real_params)
    # a zigzag ray that lands on the wrong edge class
    monkeypatch.setattr(surface, "_exit", lambda *args, **kwargs:
                        (real_exit(*args, **kwargs)[0] + 1,))
    with pytest.raises(RuntimeError, match="left the forward class"):
        build_surface(3, 4)


def test_side_count_and_rows():
    surf = build_surface(4, 3)
    assert list(surf.labels) == list(range(1, 10))
    assert [surf.row(lab) for lab in surf.labels] == [1, 1, 1, 2, 2, 2, 3, 3, 3]


def test_side_directions_43():
    surf = build_surface(4, 3)
    want = {1: math.pi / 3, 4: math.pi / 3, 7: math.pi / 3,
            2: 2 * math.pi / 3, 5: 2 * math.pi / 3, 8: 2 * math.pi / 3,
            3: 0.0, 6: 0.0, 9: 0.0}
    for lab, ang in want.items():
        assert abs(surf.sides[lab].direction - ang) < 1e-9


def test_side_directions_34():
    surf = build_surface(3, 4)
    want = {1: math.pi / 4, 4: math.pi / 4, 2: 3 * math.pi / 4,
            3: 3 * math.pi / 4, 5: 0.0, 8: 0.0,
            6: math.pi / 2, 7: math.pi / 2}
    for lab, ang in want.items():
        assert abs(surf.sides[lab].direction - ang) < 1e-9


def test_end_polygons_have_one_vanishing_side_class():
    for m, n in SMALL:
        surf = build_surface(m, n)
        for k, poly in enumerate(surf.polygons):
            deg = sum(poly.is_degenerate(i) for i in range(2 * n))
            assert deg == (n if k in (0, m - 1) else 0)
            assert signed_area(poly.vertices) > 0


def test_vanishing_sides_are_exactly_zero():
    # sin(pi) leaves a 1e-16 residue unless snapped; degenerate edges must
    # stay degenerate in floating point for containment and tracing
    for m, n in SMALL:
        a, b = polygon_params(m, n, m - 1)
        assert 0.0 in (a, b)
        surf = build_surface(m, n)
        last = surf.polygons[m - 1]
        for i in range(2 * n):
            if last.is_degenerate(i):
                # endpoints coincide up to the walk's closure residue
                p, q = last.edge(i)
                assert math.hypot(p[0] - q[0], p[1] - q[1]) < 1e-12


def test_strict_interior_containment():
    for m, n in SMALL:
        surf = build_surface(m, n)
        for poly in surf.polygons:
            cx = sum(p[0] for p in poly.vertices) / len(poly.vertices)
            cy = sum(p[1] for p in poly.vertices) / len(poly.vertices)
            assert poly.contains((cx, cy), tol=-1e-6)
            x0, y0, x1, y1 = poly.bounds()
            assert not poly.contains((x0 - 1.0, y0 - 1.0))


def test_polygons_chain_left_to_right():
    surf = build_surface(4, 3)
    x = 0.0
    for poly in surf.polygons:
        x0, y0, x1, _ = poly.bounds()
        assert abs(x0 - x) < 1e-9
        assert abs(y0) < 1e-9
        x = x1


def test_glue_is_an_involution_with_opposite_shift():
    for m, n in SMALL:
        surf = build_surface(m, n)
        for label in surf.labels:
            for k, e in surf.seats(label):
                (k2, e2), shift = surf.glue(k, e)
                (k3, e3), back = surf.glue(k2, e2)
                assert (k3, e3) == (k, e)
                a = surf.polygons[k].edge(e)[0]
                b2 = surf.polygons[k2].edge(e2)[1]
                assert abs(a[0] - (b2[0] + back[0])) < 1e-9
                assert abs(a[1] - (b2[1] + back[1])) < 1e-9


def test_paired_edges_match_in_length_and_direction():
    for m, n in SMALL:
        surf = build_surface(m, n)
        for label in surf.labels:
            (k1, e1), (k2, e2) = surf.seats(label)
            l1 = surf.polygons[k1].edge_length(e1)
            l2 = surf.polygons[k2].edge_length(e2)
            assert l1 > 0 and abs(l1 - l2) < 1e-9
            assert e1 % (2 * n) != e2 % (2 * n) or k1 != k2


def test_normalizing_scale():
    assert abs(side_length_scale(4, 3) - math.sqrt(2 * math.sqrt(6) / 3)) < 1e-12
    for m, n in SMALL:
        want = 1 / math.sqrt(math.sin(math.pi / m) * math.sin(math.pi / n))
        assert abs(side_length_scale(m, n) - want) < 1e-12


def test_json_round_trip():
    surf = build_surface(4, 3)
    data = json.loads(surf.to_json())
    assert data["m"] == 4 and data["n"] == 3
    assert len(data["polygons"]) == 4
    assert len(data["sides"]) == 9


def test_svg_output():
    surf = build_surface(4, 3)
    plain = surf.to_svg()
    assert plain.startswith("<svg") and plain.count("<polygon") == 4
    seg = surf.to_svg(segments=[((0.5, 0.2), (1.5, 0.9))])
    assert "<polyline" in seg or "<line" in seg


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=3, max_value=7))
def test_structure_invariants(m, n):
    surf = build_surface(m, n)
    assert len(list(surf.labels)) == n * (m - 1)
    seen = set()
    for label in surf.labels:
        seats = surf.seats(label)
        assert len(seats) == 2
        for seat in seats:
            assert seat not in seen
            seen.add(seat)
        k1, k2 = seats[0][0], seats[1][0]
        assert {abs(k1 - k2)} == {1}
