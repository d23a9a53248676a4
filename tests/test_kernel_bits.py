"""Bit-level goldens of the Bessel kernels and of the ball root scans.

The accuracy tests bound each value against mpmath; these pin the exact
bits, so a rewrite of a kernel loop that claims to do the same float
operations in the same order is checked here, not by timing.  Each golden
is the sha256 of the ``float.hex`` of the values, one a line.
"""

import hashlib
import math

import pytest

from symbif import _kernels, bessel_j, bessel_j_prime, disk_spectrum, radial_roots_up_to
from symbif.spectral import GRID_STEP


def _digest(values) -> str:
    return hashlib.sha256("\n".join(v.hex() for v in values).encode()).hexdigest()


#: integer and half-integer orders of every band; 0 and 0.5 take the closed
#: forms for J_{-1} and J_{-1/2}
ORDERS = (0, 1, 2, 3, 5, 8, 17, 40, 0.5, 1.5, 2.5, 3.5, 10.5, 40.5)
#: x <= 8: the ascending series, x = 0 and the band's edge included
SERIES_XS = (0.0, 0.37, 3.9, 8.0)
#: 8 < x < 60 off the scan lattice: the backward recurrences, a pass each
RECURRENCE_XS = (8.01, 13.3, 27.7, 44.4, 59.9)
#: lattice points i * GRID_STEP in the recurrence band, read once inside
#: ``shared_rows`` (orders n <= int(x) share one row) and once outside it
LATTICE_XS = tuple(i * GRID_STEP for i in (21, 50, 100, 150))
#: x >= 60: the asymptotic expansion for low orders; the high orders do not
#: converge there and fall back to the recurrences
ASYMPTOTIC_XS = (60.0, 77.7, 123.4, 199.9)
HIGH_ORDERS = (60, 120, 199, 60.5, 150.5, 199.5)
#: (order, x) whose recurrence passes |f| > 1e250 once and rescales its row,
#: its sum (integer orders) and its anchors (half-integer orders).  The
#: integer passes rescale at an even order (J_66 of 199 at 8.5, J_10 of 174
#: at 9.0) and at an odd one (J_25 of 176 at 8.5); the last two give other
#: bits if the rescale comes one step late.
RESCALING = ((199, 8.5), (174, 9.0), (176, 8.5), (199.5, 8.5), (180.5, 9.0), (190.5, 12.0))

#: the dimensions of ``_radial_condition``: the disk (every order l) and the
#: balls, half-integer nu for odd dim and integer nu for even dim
DIMS = (2, 3, 4, 5, 7)
#: the x > 0 of the series, recurrence and asymptotic grids, where the radial
#: condition is defined
CONDITION_XS = tuple(x for x in SERIES_XS + RECURRENCE_XS + ASYMPTOTIC_XS if x > 0.0)
#: (l, dim) of the ball conditions pinned apart from the disk's: l >= 1, whose
#: f reads J_{nu-1}, J_nu and J_{nu+1}, and l = 0 past the dims of DIMS
BALL_CONDITIONS = tuple((l, dim) for dim in (3, 4, 5, 7) for l in (1, 3, 10)) + ((0, 6), (0, 9), (0, 12))

#: the values of the three grids below, function values first, then the
#: radial conditions off and on the lattice
KERNEL_GOLDEN = "9ff71c2e67831a0d91ab58d4d9fa3a83c92a5a97590d0927a65c492c03fcad82"
#: (f, g) of ``_radial_condition(l, dim, x)`` for (l, dim) in BALL_CONDITIONS
#: and x in CONDITION_XS, in that order
BALL_CONDITION_GOLDEN = "e9f607d170ae30e2b280334433a4d81f7d8c29e1adfafead46ade5c487a92d52"
#: ``radial_roots_up_to(0, dim, 150.5)`` under the key dim, and
#: ``radial_roots_up_to(l, dim, 150.5)`` under the key (l, dim) for l >= 1,
#: whose scans start just below sqrt(l(l+dim)): the integer-order scans for
#: even dim, the half-integer scans for odd dim, across all three bands.  Dim
#: 9 and 12 lie past the N <= 7 of the sampled spacing of f and g together;
#: their scans rest on the proven spacing of g in ``_lattice_scan``.
#: The l >= 1 roots agree with ``tests/oracles.oracle_radial_roots`` to
#: 3.8e-15 relative, with the same count below 150.5
BALL_GOLDEN = {
    3: "1041a5560b67351c5221f13d9feb3fec793b6ecf2e299a33ac73ab9a60d93509",
    4: "6280e036ce1a25041814c7cce1aa0a2015d2e3bc77dbd4dfad0fbd7c0f3aa594",
    5: "b9f9b0db2f6a9a84aac4c6918f5f3e349daa24cedccaccb779c582dd516b9c89",
    6: "93ff1aaf20798e06e20063f3db5d3aeeedf4c5aeb29063c15c54d3cac728caa4",
    7: "d0f34dbe06358d6958f03de14a0005952097dbad2e69ca66b70f118fe4cbb0fc",
    9: "9f7c2e9b5888254c0c45c458629adeaffe0d0954555499523f5d8589a64f8129",
    12: "d2636349e45e12ab1ec5d17a92dcff8afc72a3ab8a6b73f5a2e613e56f7842a2",
    (1, 3): "15c9d55297cd255e6be06dae951cfa12149643ca1e041fc38da9c3dce355d6b7",
    (3, 4): "4fe856451bedc528c23cd9252152ef95ced0ee2a0fe91d1c14d8219eb81a21ce",
    (10, 5): "d7b3887e34fd4cdc0479aad3e67850e9acab9712d38ab80aeabd4a629d6659df",
    (1, 10): "26a04b0b33fd788200fa901d5e02b0e01f20c3370d283b5e88153f695b608f5a",
}
#: ``disk_spectrum(4000.0, dim=N)`` for the odd balls, one line per entry: the
#: ``float.hex`` of its eigenvalue and the repr of its rep.  Every degree is
#: scanned inside ``shared_rows`` with half-integer orders, in all three bands
ODD_BALL_SPECTRUM_GOLDEN = {
    3: "17efccedf4546862f9ab13ed2a439cb51c02c171a99c46a7312e4bcdabd36551",
    5: "97ce8d0f5504081de96fb0813afe43784dd2f2f0c44573bae929d21da80fc747",
    7: "003d11e2313c7b759e8bd54f6fddf6190b23598c9848e2110b8c89a4173acb45",
}


def _function_values() -> list[float]:
    points = [(nu, x) for x in SERIES_XS + RECURRENCE_XS + LATTICE_XS + ASYMPTOTIC_XS for nu in ORDERS]
    points += [(nu, x) for x in ASYMPTOTIC_XS for nu in HIGH_ORDERS]
    points += list(RESCALING)
    values = []
    for nu, x in points:
        values.append(bessel_j(nu, x))
        if x > 0.0 or nu == math.floor(nu):
            values.append(bessel_j_prime(nu, x))
    return values


def _condition_values() -> list[float]:
    values = []
    for dim in DIMS:
        for l in (ORDERS if dim == 2 else (0,)):
            if l != math.floor(l):
                continue
            values += [v for x in CONDITION_XS for v in _kernels._radial_condition(l, dim, x)]
    values += [v for l, x in RESCALING if l == math.floor(l) for v in _kernels._radial_condition(l, 2, x)]
    return values


def _lattice_values() -> list[float]:
    return [
        v
        for x in LATTICE_XS
        for dim, l in [(2, l) for l in (0, 1, 3, 8, 17, 40, 120)] + [(dim, 0) for dim in DIMS[1:]]
        for v in _kernels._radial_condition(l, dim, x)
    ]


def test_kernel_values_are_pinned():
    outside = _lattice_values()
    with _kernels.shared_rows(GRID_STEP):
        inside = _lattice_values()
    # a shared row gives every order the bits of a pass of its own
    assert inside == outside
    values = _function_values() + _condition_values() + outside
    assert _digest(values) == KERNEL_GOLDEN


def test_odd_ball_rows_are_shared_bit_for_bit():
    # half-integer orders at the lattice points read one spherical row per point
    # inside ``shared_rows``, with the bits of a pass of their own
    points = [(l, dim, x) for x in LATTICE_XS for dim in (3, 5, 7) for l in (1, 3, 10)]
    outside = [v.hex() for p in points for v in _kernels._radial_condition(*p)]
    with _kernels.shared_rows(GRID_STEP):
        inside = [v.hex() for p in points for v in _kernels._radial_condition(*p)]
        integer_rows, half_rows = _kernels._shared_rows.get()[1]
    assert inside == outside
    assert not integer_rows and sorted(half_rows) == sorted(LATTICE_XS)


def test_ball_condition_values_are_pinned():
    values = [v for l, dim in BALL_CONDITIONS for x in CONDITION_XS for v in _kernels._radial_condition(l, dim, x)]
    assert _digest(values) == BALL_CONDITION_GOLDEN


@pytest.mark.parametrize("key", list(BALL_GOLDEN), ids=lambda key: f"{key[0]}-N{key[1]}" if isinstance(key, tuple) else str(key))
def test_ball_roots_are_pinned(key):
    l, dim = key if isinstance(key, tuple) else (0, key)
    roots = radial_roots_up_to(l, dim, 150.5)
    assert len(roots) > 40
    assert _digest(roots) == BALL_GOLDEN[key]


@pytest.mark.parametrize("dim", sorted(ODD_BALL_SPECTRUM_GOLDEN))
def test_odd_ball_spectra_are_pinned(dim):
    entries = disk_spectrum(4000.0, dim=dim)
    lines = "\n".join(f"{e.eigenvalue.hex()} {e.rep!r}" for e in entries)
    assert hashlib.sha256(lines.encode()).hexdigest() == ODD_BALL_SPECTRUM_GOLDEN[dim]


# ---------------------------------------------------------------------------
# the loops of the windowed kernels against full-row and unhoisted references
# ---------------------------------------------------------------------------


def _miller_full(x: float, m0: int) -> tuple[list[float], float]:
    """Reference: the integer-order recurrence storing every order 0 .. top - 1, and its sum."""
    top = m0 + 20 + int(2.0 * math.sqrt(m0))
    if top % 2 == 1:
        top += 1
    t = 2.0 * top
    fp = 1e-30
    fc = (t / x) * 1e-30
    s = 0.0
    row = [fc]
    for _ in range(top // 2 - 1):
        t -= 2.0
        fp, fc = fc, (t / x) * fc - fp
        row.append(fc)
        s += 2.0 * fc
        if fc > 1e250 or fc < -1e250:
            fc, fp, s = fc * 1e-250, fp * 1e-250, s * 1e-250
            row[:] = [v * 1e-250 for v in row]
        t -= 2.0
        fp, fc = fc, (t / x) * fc - fp
        row.append(fc)
        if fc > 1e250 or fc < -1e250:
            fc, fp, s = fc * 1e-250, fp * 1e-250, s * 1e-250
            row[:] = [v * 1e-250 for v in row]
    fp, fc = fc, (2.0 / x) * fc - fp
    row.append(fc)
    if fc > 1e250 or fc < -1e250:
        fc, s = fc * 1e-250, s * 1e-250
        row[:] = [v * 1e-250 for v in row]
    s += fc
    row.reverse()
    return row, s


def _sph_full(x: float, m0: int) -> tuple[list[float], float]:
    """Reference: the spherical recurrence normalizing every index 0 .. top, anchored on the stored j_0, j_1."""
    cos = math.cos(x)
    s0 = math.sin(x) / x
    s1 = s0 / x - cos / x
    top = m0 + 20 + int(2.0 * math.sqrt(m0))
    t = 2.0 * top + 1.0
    fp = 0.0
    fc = 1e-30
    row = []
    for _ in range(top):
        fp, fc = fc, (t / x) * fc - fp
        t -= 2.0
        row.append(fc)
        if fc > 1e250 or fc < -1e250:
            fc, fp = fc * 1e-250, fp * 1e-250
            row[:] = [v * 1e-250 for v in row]
    scale = s0 / row[-1] if abs(s0) >= abs(s1) else s1 / row[-2]
    c = math.sqrt(2.0 * x / math.pi)
    row.append(0.0)
    row.reverse()
    row = [c * v * scale for v in row]
    row[0] = c * cos / x
    return row, 1.0


def _asym_reference(nu: float, x: float) -> tuple[float, bool]:
    """Reference: the large-x expansion with its invariants formed at every term."""
    mu = 4.0 * nu * nu
    if mu - 1.0 >= 8.0 * x:
        return 0.0, False
    p = 1.0
    q = 0.0
    t = 1.0
    ok = False
    sign_q = 1.0
    sign_p = -1.0
    m = 0
    while m < 50:
        t = t * (mu - (2.0 * m + 1.0) ** 2) / (8.0 * x * (m + 1.0))
        q += sign_q * t
        if abs(t) < 1e-17 * (abs(p) + abs(q)):
            ok = True
            break
        t = t * (mu - (2.0 * m + 3.0) ** 2) / (8.0 * x * (m + 2.0))
        p += sign_p * t
        if abs(t) < 1e-17 * (abs(p) + abs(q)):
            ok = True
            break
        sign_q = -sign_q
        sign_p = -sign_p
        m += 2
    w = x - (0.5 * nu + 0.25) * math.pi
    val = math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(w) - q * math.sin(w))
    return val, ok


def _hexes(values) -> list[str]:
    return [v.hex() for v in values]


#: (row function, x, m0) of the window check: both parities on and off the
#: lattice with the m0 of a shared row, and each RESCALING pass with its own m0
ROW_PASSES = [
    (row_of, x, int(x) + 1) for x in RECURRENCE_XS + LATTICE_XS for row_of in ("_miller_row", "_sph_row")
] + [
    ("_miller_row" if nu == math.floor(nu) else "_sph_row", x, max(int(nu + 0.5) + 1, int(x) + 1))
    for nu, x in RESCALING
]


@pytest.mark.parametrize("row_of, x, m0", ROW_PASSES, ids=lambda v: str(v))
def test_windowed_rows_match_the_full_row_bit_for_bit(row_of, x, m0):
    # a window stores only indices up to hi, yet each value read in hi - 2 .. hi
    # and the sum keep the bits of the full row; the RESCALING passes rescale
    # stored values below, inside and above a window
    ref, ref_s = (_miller_full if row_of == "_miller_row" else _sph_full)(x, m0)
    kernel = getattr(_kernels, row_of)
    for i in range(m0 + 3):
        # J_{-1} of the l = 0 disk condition is not read, so i = 0 checks 0 .. 1
        row, s = kernel(x, m0, i + 1)
        lo = max(i - 1, 0)
        assert _hexes(row[lo : i + 2]) == _hexes(ref[lo : i + 2]) and s.hex() == ref_s.hex(), i
    row, s = kernel(x, m0)
    assert _hexes(row[: m0 + 1]) == _hexes(ref[: m0 + 1]) and s.hex() == ref_s.hex()


#: x in [60, 200] for the asymptotic loop, the band's edge and the top included
ASYM_CHECK_XS = (60.0, 61.3, 77.7, 99.9, 123.4, 150.5, 175.25, 200.0)


def test_asymptotic_loop_matches_the_unhoisted_loop_bit_for_bit():
    checked = 0
    for x in ASYM_CHECK_XS:
        # every integer and half-integer order the precheck 4 nu^2 - 1 < 8x admits,
        # whose largest orders run the most terms, and the first ones it refuses
        two_nus = range(0, 2 * int(math.sqrt(2.0 * x + 0.25)) + 3)
        for nu in (0.5 * n for n in two_nus):
            got, ref = _kernels._asym_j(nu, x), _asym_reference(nu, x)
            assert (got[0].hex(), got[1]) == (ref[0].hex(), ref[1]), (nu, x)
            checked += 4.0 * nu * nu - 1.0 < 8.0 * x
    assert checked > 150
