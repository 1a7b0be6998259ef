import importlib.util
import math
import tracemalloc

import numpy as np
import pytest

from apmsim import _frechet, cli, validation
from apmsim.errors import DomainError
from apmsim.validation import (
    MAX_QUANTILES,
    AgreementReport,
    Curve,
    compare_curves,
    discrete_frechet,
    normalized_frechet,
    qq_pairs,
    r_squared,
)


def brute_force_frechet(pa, pb):
    """Exhaustive enumeration of every monotone coupling (oracle)."""
    m, n = len(pa), len(pb)

    def dist(i, j):
        return math.hypot(pa[i][0] - pb[j][0], pa[i][1] - pb[j][1])

    best = [math.inf]

    def walk(i, j, running_max):
        running_max = max(running_max, dist(i, j))
        if running_max >= best[0]:
            return
        if i == m - 1 and j == n - 1:
            best[0] = running_max
            return
        if i + 1 < m:
            walk(i + 1, j, running_max)
        if j + 1 < n:
            walk(i, j + 1, running_max)
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1, running_max)

    walk(0, 0, 0.0)
    return best[0]


def random_curve(rng, max_points=6):
    n = rng.integers(2, max_points + 1)
    x = np.sort(rng.uniform(-5.0, 5.0, n))
    while np.any(np.diff(x) == 0.0):
        x = np.sort(rng.uniform(-5.0, 5.0, n))
    y = rng.uniform(-5.0, 5.0, n)
    return Curve(x, y)


def curve_points(curve):
    return list(zip(curve.x.tolist(), curve.y.tolist()))


# --------------------------------------------------------------------- curves

def test_curve_invariants():
    with pytest.raises(DomainError):
        Curve(np.array([0.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        Curve(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        Curve(np.array([1.0, 0.5]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        Curve(np.array([0.0, 1.0]), np.array([1.0, math.nan]))
    c = Curve([0.0, 1.0, 2.0], [5.0, 6.0, 7.0], label="ok")
    assert len(c) == 3


def test_curve_from_csv(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("x,y\n0,1\n1,2\n2,4\n", encoding="utf-8")
    c = Curve.from_csv(path)
    assert len(c) == 3
    assert c.y.tolist() == [1.0, 2.0, 4.0]


def test_curve_from_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1,2\n", encoding="utf-8")
    with pytest.raises(DomainError, match="header"):
        Curve.from_csv(path)


def test_curve_from_csv_rejects_bad_row(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("x,y\n0,1\noops,2\n", encoding="utf-8")
    with pytest.raises(DomainError, match="malformed"):
        Curve.from_csv(path)


def test_curve_from_csv_rejects_rows_without_two_fields(tmp_path):
    for i, row in enumerate(("0,0,7", "0", "1,1,")):
        path = tmp_path / f"fields{i}.csv"
        path.write_text(f"x,y\n{row}\n2,1\n", encoding="utf-8")
        with pytest.raises(DomainError, match="expected 2 fields"):
            Curve.from_csv(path)


@pytest.mark.parametrize("data, offset", [
    (b"\xef\xbb\xbfx,y\n0,0\n1,\xff\n", 13),
    # 27 784 bytes of rows: the bad byte lies in the fourth 8 KB chunk that
    # the text reader decodes, 3210 bytes into it.
    (b"x,y\n" + b"".join(b"%d,0\n" % i for i in range(4126)) + b"4126,00\n1,\xff\n", 27786),
], ids=["after-byte-order-mark", "in-a-later-chunk"])
def test_curve_from_csv_decode_error_names_the_file_offset(data, offset, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    assert data.index(0xFF) == offset
    message = f"{path}: 'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte"
    with pytest.raises(DomainError) as raised:
        Curve.from_csv(path)
    assert str(raised.value) == message


# ----------------------------------------------------------- discrete Frechet

def test_frechet_identical_curves():
    c = Curve([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert discrete_frechet(c, c) == 0.0


def test_frechet_parallel_segments():
    a = Curve([0.0, 1.0], [0.0, 0.0])
    b = Curve([0.0, 1.0], [1.0, 1.0])
    assert discrete_frechet(a, b) == brute_force_frechet(curve_points(a), curve_points(b))
    assert discrete_frechet(a, b) == 1.0


def test_frechet_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(120):
        a, b = random_curve(rng), random_curve(rng)
        expected = brute_force_frechet(curve_points(a), curve_points(b))
        assert discrete_frechet(a, b) == expected


def test_frechet_symmetry():
    rng = np.random.default_rng(29)
    for _ in range(40):
        a, b = random_curve(rng), random_curve(rng)
        assert discrete_frechet(a, b) == discrete_frechet(b, a)


def test_frechet_triangle_inequality():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a, b, c = (random_curve(rng) for _ in range(3))
        dab = discrete_frechet(a, b)
        dbc = discrete_frechet(b, c)
        dac = discrete_frechet(a, c)
        assert dac <= dab + dbc + 1e-12


def test_frechet_memory_is_linear():
    # An m x n float64 table would be 8 MB at 1000 x 1000; the wavefront
    # keeps a few arrays of length m + 1.
    x = np.linspace(0.0, 1.0, 1000)
    a, b = Curve(x, np.sin(7.0 * x)), Curve(x + 0.5, np.cos(5.0 * x))
    tracemalloc.start()
    try:
        discrete_frechet(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_frechet_proof_lives_only_in_its_module():
    # validation holds none of the proof's names, only discrete_frechet
    # itself. Loaded alone, outside the package, _frechet still computes the
    # distance: it imports nothing of the package, validation included, at
    # run time.
    moved = ["FAST_DISTANCE_REL", "FAST_DISTANCE_ABS", "_SCAN_BLOCK_CELLS", "_UFUNC_BUFSIZE", "_FLOAT_MAX",
             "_points", "_exact_distances", "_wavefront", "_Scan", "_Window", "_minima", "_reaches"]
    assert [name for name in moved if hasattr(validation, name)] == []
    assert all(hasattr(_frechet, name) for name in moved)
    assert validation.discrete_frechet is _frechet.discrete_frechet
    spec = importlib.util.spec_from_file_location("frechet_alone", _frechet.__file__)
    alone = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(alone)
    a, b = Curve([0.0, 1.0, 2.0], [0.0, 3.0, 0.0]), Curve([0.0, 2.0], [1.0, 1.0])
    assert alone.discrete_frechet(a, b) == discrete_frechet(a, b) == math.hypot(1.0, 2.0)


# --------------------------------------------------------- normalized Frechet

def test_normalized_frechet_identical():
    c = Curve([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])
    assert normalized_frechet(c, c) == 0.0


def test_normalized_frechet_vertical_shift():
    x = np.linspace(0.0, 1.0, 11)
    y = np.sin(2.0 * x) + 0.5 * x
    ref = Curve(x, y)
    shift = 0.10 * (y.max() - y.min())
    model = Curve(x, y + shift)
    assert normalized_frechet(model, ref) == pytest.approx(0.10, abs=1e-9)


def test_normalized_frechet_unit_invariance():
    x = np.linspace(0.0, 2.0, 9)
    y = x**2 - x
    ref = Curve(x, y)
    model = Curve(x, y + 0.3)
    base = normalized_frechet(model, ref)
    scaled = normalized_frechet(
        Curve(x, 1000.0 * (y + 0.3)), Curve(x, 1000.0 * y)
    )
    assert scaled == pytest.approx(base, abs=1e-9)


def test_normalized_frechet_random_affine_invariance():
    rng = np.random.default_rng(37)
    x = np.linspace(0.0, 1.0, 8)
    ref_y = rng.uniform(-2.0, 2.0, 8)
    model_y = ref_y + rng.uniform(-0.5, 0.5, 8)
    base = normalized_frechet(Curve(x, model_y), Curve(x, ref_y))
    for _ in range(20):
        ax = rng.uniform(0.1, 50.0)
        bx = rng.uniform(-10.0, 10.0)
        ay = rng.uniform(0.1, 50.0)
        by = rng.uniform(-10.0, 10.0)
        mapped = normalized_frechet(
            Curve(ax * x + bx, ay * model_y + by),
            Curve(ax * x + bx, ay * ref_y + by),
        )
        assert mapped == pytest.approx(base, abs=1e-9)


def test_normalized_frechet_rejects_degenerate_reference():
    flat = Curve([0.0, 1.0], [2.0, 2.0])
    model = Curve([0.0, 1.0], [1.0, 3.0])
    with pytest.raises(DomainError, match="degenerate"):
        normalized_frechet(model, flat)


def test_normalized_frechet_rejects_overflowing_reference_range():
    # Every value is finite, but the x and y spans exceed the largest float.
    wide = Curve([-1e308, 1e308], [1e308, -1e308])
    with pytest.raises(DomainError, match="reference curve x or y range overflows a float"):
        normalized_frechet(wide, wide)


def test_normalized_frechet_rejects_model_far_outside_reference():
    # The reference spans are finite, but (1.5e308 - -1e308) / 1.5e308 overflows.
    model = Curve([0.0, 1.5e308], [0.0, 1.0], "model")
    reference = Curve([-1e308, 5e307], [0.0, 1.0], "reference")
    with pytest.raises(DomainError, match="curve 'model' lies too far outside the reference"):
        normalized_frechet(model, reference)


def test_normalized_frechet_checks_the_reference_box_before_the_model():
    # Both faults at once: the reference's y range is degenerate, and the
    # model lies too far outside its x range. The box is checked once,
    # before either curve is rescaled, so its error comes first.
    model = Curve([0.0, 1.5e308], [0.0, 1.0], "model")
    reference = Curve([-1e308, 5e307], [2.0, 2.0], "reference")
    with pytest.raises(DomainError, match="^reference curve has a degenerate x or y range$"):
        normalized_frechet(model, reference)


# ------------------------------------------------------------------------ R^2

def test_r_squared_exact_agreement():
    assert r_squared([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]) == 1.0


def test_r_squared_mean_model_is_zero():
    assert r_squared([(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)]) == pytest.approx(0.0, abs=1e-15)


def test_r_squared_hand_value():
    # SS_res = 1, SS_tot = 2
    assert r_squared([(1.0, 1.0), (2.0, 2.0), (3.0, 4.0)]) == pytest.approx(0.5, abs=1e-15)


def test_r_squared_can_be_negative():
    assert r_squared([(1.0, 3.0), (2.0, -2.0), (3.0, 9.0)]) < 0.0


def test_r_squared_affine_invariance():
    rng = np.random.default_rng(41)
    ref = rng.uniform(0.0, 5.0, 12)
    model = ref + rng.uniform(-0.7, 0.7, 12)
    base = r_squared(np.column_stack((ref, model)))
    for _ in range(10):
        a = rng.uniform(0.1, 20.0)
        b = rng.uniform(-30.0, 30.0)
        mapped = r_squared(np.column_stack((a * ref + b, a * model + b)))
        assert mapped == pytest.approx(base, abs=1e-9)


def test_r_squared_domain_errors():
    with pytest.raises(DomainError):
        r_squared([(1.0, 1.0)])
    with pytest.raises(DomainError, match="variance"):
        r_squared([(2.0, 1.0), (2.0, 3.0)])
    # Finite values whose total and residual sums of squares overflow.
    with pytest.raises(DomainError, match="sums of squares overflow a float"):
        r_squared([(0.0, 0.0), (1.5e308, 1.5e308)])
    with pytest.raises(DomainError, match="sums of squares overflow a float"):
        r_squared([(0.0, -1e308), (1.0, 1e308)])
    with pytest.raises(DomainError, match="R\\^2 overflows a float"):
        r_squared([(0.0, 0.0), (1e-150, 1e5)])


# ------------------------------------------------------------------ Q-Q pairs

def test_qq_identity_on_diagonal():
    rng = np.random.default_rng(43)
    sample = rng.uniform(-4.0, 9.0, 17)
    for k in (2, 3, 7, 11):
        for qa, qb in qq_pairs(sample, sample, k):
            assert qa == qb


def test_qq_hand_interpolated_values():
    pairs = qq_pairs([0.0, 1.0], [0.0, 2.0], 3)
    assert pairs == [(0.0, 0.0), (0.5, 1.0), (1.0, 2.0)]


def test_qq_monotone_in_both_coordinates():
    rng = np.random.default_rng(47)
    a = rng.normal(size=40)
    b = rng.normal(loc=1.0, scale=2.0, size=25)
    pairs = qq_pairs(a, b, 9)
    for (a0, b0), (a1, b1) in zip(pairs, pairs[1:]):
        assert a1 >= a0
        assert b1 >= b0


def test_qq_domain_errors():
    with pytest.raises(DomainError):
        qq_pairs([], [1.0], 3)
    with pytest.raises(DomainError):
        qq_pairs([1.0, 2.0], [1.0], 1)


# -------------------------------------------------------------------- reports

def test_compare_curves_self_agreement():
    c = Curve([0.0, 1.0, 2.0], [1.0, 4.0, 2.0])
    report = compare_curves(c, c, qq=5)
    assert report.frechet_normalized == 0.0
    assert report.frechet_raw == 0.0
    assert report.r_squared == 1.0
    assert all(a == b for a, b in report.qq_pairs)


def test_compare_curves_requires_resample_for_mismatched_grids():
    a = Curve([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    b = Curve([0.0, 2.0], [0.0, 2.0])
    with pytest.raises(DomainError, match="resample"):
        compare_curves(a, b)
    report = compare_curves(a, b, resample=True)
    assert report.resampled
    assert report.r_squared == pytest.approx(1.0, abs=1e-12)


def test_report_serialization(tmp_path, monkeypatch):
    # validate writes a report made by hand: compare_curves returns it.
    report = AgreementReport(
        frechet_normalized=0.125, frechet_raw=0.5, r_squared=0.75,
        qq_pairs=[(0.0, 0.0), (1.0, 1.5)],
    )
    monkeypatch.setattr(cli, "compare_curves", lambda *args, **kwargs: report)
    curve = tmp_path / "c.csv"
    curve.write_text("x,y\n0,0\n1,1\n", encoding="utf-8")

    def written(name, *options):
        out = tmp_path / name
        assert cli.main(["validate", str(curve), str(curve), "--out", str(out), *options]) == 0
        return out.read_text(encoding="utf-8")

    text = written("report.json")
    assert '"frechet_normalized_pct": 12.5' in text
    row = written("report.csv", "--format", "csv")
    assert row.splitlines()[0] == "frechet_normalized,frechet_normalized_pct,frechet_raw,r_squared"
    assert row.splitlines()[1] == "0.125000,12.500000,0.500000,0.750000"
    lines = (tmp_path / "report.qq.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p,reference,model"
    assert lines[1] == "0.000000,0.000000,0.000000"
    assert lines[2] == "1.000000,1.000000,1.500000"


def test_report_rejects_negative_distance():
    with pytest.raises(DomainError):
        AgreementReport(frechet_normalized=-0.1, frechet_raw=0.0, r_squared=1.0)


def test_qq_count_capped():
    with pytest.raises(DomainError, match=f"at most {MAX_QUANTILES}, got {MAX_QUANTILES + 1}"):
        qq_pairs([0.0, 1.0], [0.0, 2.0], MAX_QUANTILES + 1)
    assert len(qq_pairs([0.0, 1.0], [0.0, 2.0], MAX_QUANTILES)) == MAX_QUANTILES
