import copy
import hashlib
import inspect
import math
import random
import re
import threading
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eccs import curve as curve_mod
from eccs import ecs
from eccs import field as field_mod
from eccs.curve import (
    _REGISTRY_DIGESTS,
    _REGISTRY_SPECS,
    _SPEC_FIELDS,
    _TABLE_AT_USE,
    _TABLE_DIGESTS,
    CurveParams,
    CurvePoint,
    IDENTITY,
    SECP256K1_ID,
    TOY_ID,
    _affine,
    _count_points,
    _cube_roots_of_unity,
    _Endomorphism,
    _generator_table_bytes,
    _odd_multiples,
    _pack,
    _raw_multiple,
    _rows,
    _select,
    _spec_digest,
    _straus,
    _table_rows,
    compress,
    compressed_size,
    count_ops,
    curve_by_id,
    decompress,
    derive_g2,
    get_curve,
    is_on_curve,
    linear_combinations,
    point_add,
    point_negate,
    scalar_mult,
    toy_curve_search,
)
from eccs.errors import PackageDataError, ParseError
from eccs.field import FieldElement

from conftest import ALT_BETA, ALT_G1, ALT_ID, ALT_LAM, ALT_N, ALT_P, alt_curve
from helpers import aff_add, aff_mul, as_tuple, held_by

SECP_P = 2**256 - 2**32 - 977
SECP_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
SECP_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
SECP_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


# --- registry -------------------------------------------------------------


def test_registry_lookup(toy, secp):
    assert secp.curve_id == SECP256K1_ID
    assert secp.name == "secp256k1"
    assert secp.p == SECP_P
    assert secp.n == SECP_N
    assert secp.b == 7
    assert as_tuple(secp.g1) == (SECP_GX, SECP_GY)
    assert toy.curve_id == TOY_ID
    assert (toy.p, toy.b, toy.n) == (1051, 7, 1093)
    assert as_tuple(toy.g1) == (3, 666)
    assert curve_by_id(TOY_ID) is toy  # cached
    assert get_curve("toy") == toy


def test_a_curve_is_its_spec(toy):
    """The constructor takes exactly the spec fields, and equality reads all of them."""
    assert tuple(inspect.signature(CurveParams).parameters) == _SPEC_FIELDS
    spec = _REGISTRY_SPECS[TOY_ID]
    proved = CurveParams(**spec)
    assert proved == toy and hash(proved) == hash(toy)
    # the other valid pairing, (870, 151), and another name make other curves
    for change in (dict(beta=870, lam=151), dict(name="toy-renamed")):
        other = CurveParams(**{**spec, **change})
        assert other != toy, change


def test_registry_rejects_unknown():
    with pytest.raises(ParseError):
        curve_by_id(0x42)
    with pytest.raises(ValueError):
        get_curve("p256")


@pytest.mark.parametrize("curve_id", sorted(_REGISTRY_SPECS))
def test_pinned_digests_match_fully_validated_specs(curve_id):
    spec = _REGISTRY_SPECS[curve_id]
    digest = _spec_digest(spec)
    assert digest == _REGISTRY_DIGESTS[curve_id], f"recomputed digest: {digest}"
    loaded, proved = curve_by_id(curve_id), CurveParams(**spec)
    assert loaded == proved
    for attr in ("beta", "windows", "_basis", "_shift"):
        assert getattr(loaded._glv, attr) == getattr(proved._glv, attr)
    lam = spec["lam"]
    rng = random.Random(curve_id)
    for k in [0, 1, proved.n - 1, lam] + [rng.randrange(proved.n) for _ in range(3)]:
        for base in ("g1", "g2"):
            got = scalar_mult(loaded, getattr(loaded, base), k)
            assert got == scalar_mult(proved, getattr(proved, base), k), (base, k)


def _mutate(spec, key):
    """The spec's value for key, changed: g1 in its y, g2 in its x, a name by a suffix."""
    value = spec[key]
    if key in ("g1", "g2"):
        x, y = value
        return (x + 1, y) if key == "g2" else (x, y + 1)
    if isinstance(value, str):
        return value + "x"
    return value + 1


@pytest.fixture
def fresh_registry(monkeypatch):
    """A private copy of the specs and digests, and an empty load cache."""
    specs = copy.deepcopy(_REGISTRY_SPECS)
    digests = dict(_REGISTRY_DIGESTS)
    monkeypatch.setattr(curve_mod, "_REGISTRY_SPECS", specs)
    monkeypatch.setattr(curve_mod, "_REGISTRY_DIGESTS", digests)
    monkeypatch.setattr(curve_mod, "_loaded", {})
    return specs, digests


@pytest.mark.parametrize("key", _SPEC_FIELDS)
@pytest.mark.parametrize("curve_id", sorted(_REGISTRY_SPECS))
def test_registry_load_rejects_a_changed_constant(fresh_registry, curve_id, key):
    specs, _ = fresh_registry
    specs[curve_id][key] = _mutate(specs[curve_id], key)
    with pytest.raises(PackageDataError, match="pinned digest"):
        curve_by_id(curve_id)


@pytest.mark.parametrize("curve_id", sorted(_REGISTRY_SPECS))
def test_registry_load_rejects_a_changed_digest(fresh_registry, curve_id):
    _, digests = fresh_registry
    digests[curve_id] = "00" * 32  # the spec itself is intact
    with pytest.raises(PackageDataError, match="pinned digest"):
        curve_by_id(curve_id)


def _no_proofs(*_args, **_kwargs):
    raise AssertionError("a registry load ran a proof")


def test_registry_load_runs_no_proofs(fresh_registry, monkeypatch, toy, secp):
    monkeypatch.setattr(field_mod, "is_probable_prime", _no_proofs)
    monkeypatch.setattr(curve_mod, "is_probable_prime", _no_proofs)  # curve's own binding
    monkeypatch.setattr(curve_mod, "_raw_multiple", _no_proofs)  # order and lam * g1
    assert curve_by_id(SECP256K1_ID) == secp
    assert curve_by_id(TOY_ID) == toy
    assert curve_mod._loaded[TOY_ID] is not toy


@pytest.mark.parametrize(
    "mutation",
    [
        dict(b=8),  # generators fall off the curve
        dict(n=1091),  # prime but not the group order
        dict(n=1087),  # likewise
        dict(g1=(4, 666)),  # not on curve
        dict(p=1049),  # different prime, everything inconsistent
        dict(beta=870),  # the other cube root: pairs with lam = 151, not 941
        dict(lam=151),  # likewise
        dict(beta=181),  # not a cube root of unity
        dict(beta=1),  # trivial root
        dict(lam=None),  # beta without lam
        dict(b=1058),  # b = 7 unreduced: only the range check refuses it
    ],
)
def test_corrupted_toy_parameters_rejected(mutation):
    spec = dict(
        curve_id=TOY_ID,
        name="toy",
        p=1051,
        b=7,
        n=1093,
        g1=(3, 666),
        g2=(1033, 592),
        beta=180,
        lam=941,
    )
    spec.update(mutation)
    with pytest.raises(ValueError):
        CurveParams(**spec)


@pytest.mark.parametrize(
    "mutation, reason",
    [
        (dict(curve_id=0x100), "curve id must fit in one byte"),
        # Hasse allows n in [3, 13] over F_7, and 2n <= 13 leaves room for a cofactor
        (dict(p=7, b=3, n=5), "order too small to force cofactor 1"),
    ],
    ids=["curve-id", "cofactor"],
)
def test_each_spec_check_names_its_reason(mutation, reason):
    # with either check gone a later one raises, or none does
    with pytest.raises(ValueError, match=reason):
        CurveParams(**{**_REGISTRY_SPECS[TOY_ID], **mutation})


@pytest.mark.parametrize("g1", [(3 + 1051, 666), (3, 666 - 1051)])
def test_an_unreduced_generator_is_refused(g1):
    # as an unreduced b is: the point check reduces nothing
    with pytest.raises(ValueError, match="not on the curve"):
        CurveParams(**{**_REGISTRY_SPECS[TOY_ID], "g1": g1})


def test_singular_curve_rejected():
    with pytest.raises(ValueError, match="singular"):
        CurveParams(0x60, "bad", 1051, 0, 1093, (3, 666), (5, 5), 180, 941)


def test_beta_and_lam_are_required():
    spec = dict(_REGISTRY_SPECS[TOY_ID])
    del spec["beta"], spec["lam"]
    with pytest.raises(TypeError, match="beta"):
        CurveParams(**spec)


def test_even_lam_is_proved_as_lam_plus_n():
    # both secp256k1 roots are even; the toy's odd ones are refused above
    spec = _REGISTRY_SPECS[SECP256K1_ID]
    p, n, beta, lam = spec["p"], spec["n"], spec["beta"], spec["lam"]
    beta2, lam2 = beta * beta % p, lam * lam % n
    assert lam % 2 == lam2 % 2 == 0
    assert CurveParams(**{**spec, "beta": beta2, "lam": lam2})._glv.beta == beta2
    for wrong in (dict(lam=lam2), dict(beta=beta2)):
        with pytest.raises(ValueError, match=re.escape("lam * g1")):
            CurveParams(**{**spec, **wrong})
    with pytest.raises(ValueError, match="odd"):
        _raw_multiple(p, 7, lam, *spec["g1"])  # read exactly, so only odd multiples


@pytest.mark.parametrize("name", ["toy", "secp256k1"])
def test_raw_multiple_matches_the_affine_reference(monkeypatch, name):
    params = get_curve(name)
    p, n = params.p, params.n
    doublings = Counter()
    group_law = curve_mod._group_law

    def counted_law(b3, modulus):
        add, dbl = group_law(b3, modulus)

        def counted_dbl(*args):
            doublings["dbl"] += 1
            return dbl(*args)

        return add, counted_dbl

    monkeypatch.setattr(curve_mod, "_group_law", counted_law)
    g1t = as_tuple(params.g1)
    # one, two and three 5-bit windows at both ends of each count; n gives the identity
    n_windows = {"toy": 3, "secp256k1": 52}[name]
    for k, windows in ((1, 1), (31, 1), (33, 2), (1023, 2), (1025, 3), (n, n_windows)):
        doublings.clear()
        X, Y, Z = _raw_multiple(p, params.b, k, *g1t)
        # one doubling for the row, five per window below the top one
        assert doublings["dbl"] == 1 + 5 * (windows - 1), k
        want = aff_mul(p, 0, g1t, k)
        if want is None:
            assert Z % p == 0, k
        else:
            zinv = pow(Z, -1, p)
            assert (X * zinv % p, Y * zinv % p) == want, k


def test_composite_field_rejected():
    # the proof's own message: 1053 (1 mod 4) would also fail the shape
    # check, while 1023 = 3*11*31 and 1095 = 3*5*73 pass it
    for p, n in ((1053, 1093), (1023, 1093), (1051, 1095)):
        with pytest.raises(ValueError, match="primality"):
            CurveParams(0x60, "bad", p, 7, n, (3, 666), (5, 5), 180, 941)


def test_hasse_bound_admits_its_limit(alt):
    # floor(2 * sqrt(p)) is 65 here, one more than 2 * isqrt(p)
    assert alt.n - (alt.p + 1) == 65 == 2 * math.isqrt(alt.p) + 1


def test_hasse_bound_enforced():
    # claimed order far outside p + 1 +- 2*sqrt(p)
    with pytest.raises(ValueError, match="Hasse"):
        CurveParams(0x60, "bad", 1051, 7, 1201, (3, 666), (1033, 592), 180, 941)


# --- group law ------------------------------------------------------------


def enumerate_group(params):
    """All points by repeated addition of g1 (prime order => cyclic)."""
    pts = [IDENTITY]
    current = params.g1
    while not current.is_identity:
        pts.append(current)
        current = point_add(params, current, params.g1)
    return pts


def test_toy_group_has_order_n(toy):
    assert len(enumerate_group(toy)) == toy.n


def test_identity_edge_cases(toy):
    g = toy.g1
    assert point_add(toy, g, IDENTITY) == g
    assert point_add(toy, IDENTITY, g) == g
    assert point_add(toy, IDENTITY, IDENTITY) == IDENTITY
    assert point_negate(toy, IDENTITY) == IDENTITY
    assert point_add(toy, g, point_negate(toy, g)) == IDENTITY


def test_an_identity_result_takes_the_one_inversion_of_its_call(monkeypatch):
    """Every call of the group law goes to affine with exactly one
    blinded inversion, whether or not its results are the identity."""
    toy = fresh_curve("toy")  # no table is built here, so none inverts
    g = toy.g1
    minus_g = point_negate(toy, g)
    inversions = []
    real_blinded_inverse = curve_mod._blinded_inverse
    monkeypatch.setattr(
        curve_mod, "_blinded_inverse", lambda v, p: inversions.append(v) or real_blinded_inverse(v, p)
    )
    doubled = toy.point(*aff_add(toy.p, 0, as_tuple(g), as_tuple(g)))
    for compute, want in (
        (lambda: [point_add(toy, g, g)], [doubled]),
        (lambda: [point_add(toy, g, minus_g)], [IDENTITY]),
        (lambda: [scalar_mult(toy, IDENTITY, 5)], [IDENTITY]),
        (lambda: linear_combinations(toy, [[]]), [IDENTITY]),
        (lambda: linear_combinations(toy, [[(g, 1), (minus_g, 1)], [(g, 2)]]), [IDENTITY, doubled]),
    ):
        inversions.clear()
        assert compute() == want
        assert len(inversions) == 1


def test_addition_matches_affine_reference(toy):
    rng = random.Random(0xC0FFEE)
    pts = enumerate_group(toy)
    for _ in range(2000):
        P = rng.choice(pts)
        Q = rng.choice(pts)
        want = aff_add(toy.p, 0, as_tuple(P), as_tuple(Q))
        assert as_tuple(point_add(toy, P, Q)) == want


def test_doubling_matches_affine_reference(toy):
    for P in enumerate_group(toy):
        want = aff_add(toy.p, 0, as_tuple(P), as_tuple(P))
        assert as_tuple(point_add(toy, P, P)) == want


def test_commutativity_and_associativity_sampled(toy):
    rng = random.Random(7)
    pts = enumerate_group(toy)
    for _ in range(300):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert point_add(toy, P, Q) == point_add(toy, Q, P)
        lhs = point_add(toy, point_add(toy, P, Q), R)
        rhs = point_add(toy, P, point_add(toy, Q, R))
        assert lhs == rhs


def test_a_field_with_p_1_mod_4_is_refused():
    # a valid prime-order curve: the square root it would need is gone
    with pytest.raises(ValueError, match=re.escape("p % 4 == 3")):
        # y^2 = x^3 + 11 over F_1009 (1009 % 4 == 1), prime order 967
        CurveParams(0x60, "p1009-b11", 1009, 11, 967, (1, 298), (676, 232), 180, 941)


def test_negation(toy):
    rng = random.Random(3)
    pts = enumerate_group(toy)
    for _ in range(200):
        P = rng.choice(pts)
        N = point_negate(toy, P)
        assert point_add(toy, P, N) == IDENTITY
        assert point_negate(toy, N) == P


# --- scalar multiplication ------------------------------------------------


def test_scalar_mult_small_cases(toy):
    g = toy.g1
    assert scalar_mult(toy, g, 0) == IDENTITY
    assert scalar_mult(toy, g, 1) == g
    assert scalar_mult(toy, g, 2) == point_add(toy, g, g)
    assert scalar_mult(toy, g, toy.n - 1) == point_negate(toy, g)
    assert scalar_mult(toy, IDENTITY, 5) == IDENTITY


def test_scalar_mult_matches_repeated_addition(toy):
    rng = random.Random(0x5CA1A)
    g1t = as_tuple(toy.g1)
    for _ in range(300):
        k = rng.randrange(toy.n)
        assert as_tuple(scalar_mult(toy, toy.g1, k)) == aff_mul(toy.p, 0, g1t, k)


def test_scalar_mult_distributes_over_scalar_addition(toy):
    rng = random.Random(21)
    for _ in range(200):
        k1 = rng.randrange(toy.n)
        k2 = rng.randrange(toy.n)
        lhs = scalar_mult(toy, toy.g1, (k1 + k2) % toy.n)
        rhs = point_add(
            toy, scalar_mult(toy, toy.g1, k1), scalar_mult(toy, toy.g1, k2)
        )
        assert lhs == rhs


def test_scalar_mult_refuses_scalar_field_elements(toy):
    with pytest.raises(TypeError):
        scalar_mult(toy, toy.g1, FieldElement(77, toy.n))


def test_scalar_range_enforced(toy, secp):
    with pytest.raises(ValueError):
        scalar_mult(toy, toy.g1, -1)
    with pytest.raises(ValueError):
        scalar_mult(toy, toy.g1, toy.n)
    with pytest.raises(TypeError):
        scalar_mult(toy, toy.g1, FieldElement(5, secp.n))  # not an int, whatever its modulus
    with pytest.raises(TypeError):
        scalar_mult(toy, toy.g1, 1.5)


def test_secp256k1_generator_order(secp):
    assert scalar_mult(secp, secp.g1, secp.n - 1) == point_negate(secp, secp.g1)
    assert point_add(secp, scalar_mult(secp, secp.g1, secp.n - 1), secp.g1) == IDENTITY


def test_secp256k1_against_affine_reference(secp):
    rng = random.Random(0xB0B)
    gt = as_tuple(secp.g1)
    for _ in range(8):
        k = rng.randrange(1, secp.n)
        assert as_tuple(scalar_mult(secp, secp.g1, k)) == aff_mul(secp.p, 0, gt, k)


def fresh_curve(name):
    """A new CurveParams for a registry curve: no base has been used yet."""
    return CurveParams(**next(s for s in _REGISTRY_SPECS.values() if s["name"] == name))


def split(params, point, k):
    """k * point through the variable-base path: the GLV split, on rows built here."""
    glv, rows = params._glv, _rows(params, point.x, point.y)
    total = _straus(params._add, params._dbl, params.p, rows, glv.split(k), glv.windows)
    return _affine(params, [total])[0]


def with_table(params, point):
    """Use point as a base until it has its fixed-base table."""
    for _ in range(_TABLE_AT_USE):
        scalar_mult(params, point, 1)
    assert isinstance(held_by(params, point), list)
    return point


def test_toy_every_scalar_on_every_path():
    toy = fresh_curve("toy")
    g1t = as_tuple(toy.g1)
    others = [toy.point(*aff_mul(toy.p, 0, g1t, k)) for k in (2, 700)]
    for base in [toy.g1, toy.g2] + others:
        want = [aff_mul(toy.p, 0, as_tuple(base), k) for k in range(toy.n)]
        for k in range(toy.n):
            assert as_tuple(split(toy, base, k)) == want[k]
        # public calls: below the threshold the split path, then the table
        for k in range(toy.n):
            built = isinstance(held_by(toy, base), list)
            assert built == (k >= _TABLE_AT_USE)
            assert as_tuple(scalar_mult(toy, base, k)) == want[k]


def glv_halves(params, k):
    """The two signed half-length scalars of k's GLV split."""
    glv = params._glv
    v1, v2 = glv.split(k)
    half = 1 << (5 * glv.windows - 1)
    return v1 - half, v2 - half


def test_secp256k1_edge_scalars_on_every_path():
    secp = fresh_curve("secp256k1")
    n, lam = secp.n, _REGISTRY_SPECS[SECP256K1_ID]["lam"]
    scalars = [0, 1, 2, n - 1, lam, n - lam]
    # +-(2**260 - 1) mod n, two full-width scalars; both paths read the GLV
    # halves, whose all -31 and all +31 values follow
    full = (1 << 5 * 52) - 1
    scalars += [(0 - full) % n, full % n]
    # the same for both GLV halves over their 26 windows
    glv_windows = secp._glv.windows
    assert glv_windows == 26
    ones = (1 << 5 * glv_windows) - 1
    for v1 in (0, ones):
        for v2 in (0, ones):
            read1, read2 = 2 * v1 - ones, 2 * v2 - ones
            scalars.append((read1 + lam * read2) % n)
    # every combination of signs of the two GLV halves
    rng = random.Random(0x6C5)
    signs = {}
    while len(signs) < 4:
        k = rng.randrange(n)
        s1, s2 = glv_halves(secp, k)
        assert abs(s1) < 1 << 128 and abs(s2) < 1 << 128
        signs.setdefault((s1 < 0, s2 < 0), k)
    scalars += signs.values()
    base = with_table(secp, secp.g1)
    gt = as_tuple(secp.g1)
    for k in scalars:
        want = aff_mul(secp.p, 0, gt, k)
        assert as_tuple(split(secp, secp.g1, k)) == want, hex(k)
        assert as_tuple(scalar_mult(secp, base, k)) == want, hex(k)


@pytest.mark.parametrize("n, lam", [(1123, 33), (1483, 38)])
def test_split_after_the_basis_orientation_swap(n, lam):
    # cube roots of 1 whose Euclidean basis comes out with a1*b2 - a2*b1 < 0;
    # no registry or fixture curve takes that branch of _short_basis
    assert lam in _cube_roots_of_unity(n)
    glv = _Endomorphism(n, 2, lam)
    ones = 32**glv.windows - 1
    for k in range(n):
        v1, v2 = glv.split(k)
        assert 0 <= v1 <= ones and 0 <= v2 <= ones, k
        assert (2 * v1 - ones + lam * (2 * v2 - ones) - k) % n == 0, k


def test_straus_reads_extreme_windows(secp):
    # all-zero and all-ones values on both rows of one pass: every digit -31 or +31
    x, y = secp.g1.x, secp.g1.y
    rows = [
        _pack(_odd_multiples(secp._add, secp._dbl, x, y, 1), secp.p),
        _pack(_odd_multiples(secp._add, secp._dbl, *secp._dbl(x, y, 1)), secp.p),
    ]
    windows = 5
    ones = (1 << 5 * windows) - 1
    gt = as_tuple(secp.g1)
    for v1 in (0, ones):
        for v2 in (0, ones):
            total = _straus(secp._add, secp._dbl, secp.p, rows, [v1, v2], windows)
            got = _affine(secp, [total])[0]
            multiple = (2 * v1 - ones) + 2 * (2 * v2 - ones)
            assert as_tuple(got) == aff_mul(secp.p, 0, gt, multiple % secp.n)


def plain_select(row, window):
    """The digit 2*window - (2*len(row) - 1) looked up by index, negated by branch."""
    digit = 2 * window - (2 * len(row) - 1)
    X, Y, Z = row[(abs(digit) - 1) // 2]
    return (X, Y, Z) if digit > 0 else (X, -Y, Z)


def test_select_matches_a_plain_lookup_for_every_window(secp):
    p = secp.p
    row = _odd_multiples(secp._add, secp._dbl, secp.g1.x, secp.g1.y, 1)
    assert len(row) == 16
    packed = _pack(row, p)
    for window in range(32):
        X, Y, Z = _select(packed, window, p)
        want = plain_select(row, window)
        assert (X, Y % p, Z) == (want[0], want[1] % p, want[2]), window


@pytest.mark.parametrize("name", ["toy", "secp256k1"])
def test_fixed_tables_hold_16_odd_multiples_per_5_bit_window(fresh_registry, name):
    """A table built on a proved curve, and the shipped tables that a fresh
    registry load gives the objects g1 and g2 on the first use of g1: for
    the w windows of a GLV half, row i holds (2j + 1) * 32**i * base and
    row w + i lam times that."""
    proved = fresh_curve(name)
    tables = [(proved.g1, held_by(proved, with_table(proved, proved.g1)))]
    loaded = get_curve(name)
    scalar_mult(loaded, loaded.g1, 1)
    tables += [(base, held_by(loaded, base)) for base in (loaded.g1, loaded.g2)]
    windows = {"toy": 2, "secp256k1": 26}[name]
    assert proved._glv.windows == windows
    lam = _REGISTRY_SPECS[proved.curve_id]["lam"]
    if name == "toy":
        spots = [(i, j) for i in range(2 * windows) for j in range(16)]  # every entry
    else:
        spots = [(i, j) for i in (0, 1, 25, 26, 27, 51) for j in (0, 1, 8, 15)]
    s = proved.p.bit_length()
    for base, table in tables:
        assert [len(row) for row in table] == [16] * 2 * windows
        for i, j in spots:
            multiple = (2 * j + 1) * 32 ** (i % windows) * (lam if i >= windows else 1)
            want = aff_mul(proved.p, 0, as_tuple(base), multiple % proved.n)
            assert table[i][j] == want[0] | want[1] << s | 1 << 2 * s, (base, i, j)  # Z == 1


def cube_roots_of_unity(m):
    """The two nontrivial cube roots of 1 modulo a prime m == 1 (mod 3)."""
    g = 2
    while pow(g, (m - 1) // 3, m) == 1:
        g += 1
    root = pow(g, (m - 1) // 3, m)
    return {root, root * root % m}


def test_glv_constants_rederived():
    for spec in _REGISTRY_SPECS.values():
        p, n = spec["p"], spec["n"]
        x, y = spec["g1"]
        pairs = {
            (beta, lam)
            for beta in cube_roots_of_unity(p)
            for lam in cube_roots_of_unity(n)
            if aff_mul(p, 0, (x, y), lam) == (beta * x % p, y)
        }
        assert len(pairs) == 2
        assert (spec["beta"], spec["lam"]) in pairs
        assert spec["beta"] == min(cube_roots_of_unity(p))  # the search's rule
    # the alt fixture follows the same rule, and has one pairing for its beta
    assert ALT_BETA == min(cube_roots_of_unity(ALT_P))
    image = (ALT_BETA * ALT_G1[0] % ALT_P, ALT_G1[1])
    lams = [lam for lam in cube_roots_of_unity(ALT_N) if aff_mul(ALT_P, 0, ALT_G1, lam) == image]
    assert lams == [ALT_LAM]


def test_curves_with_p_2_mod_3_have_p_plus_1_points():
    # cubing permutes F_p for p == 2 (mod 3), so y^2 = x^3 + b has p + 1
    # points, an even number: no prime-order curve lacks the endomorphism
    primes = [p for p in range(1000, 1111) if p % 12 == 11 and field_mod.is_probable_prime(p)]
    assert primes == [1019, 1031, 1091, 1103]
    for p in primes:
        for b in (1, 2, 3, 7):
            assert _count_points(p, b) == p + 1, (p, b)


def test_fixed_tables_wait_for_the_break_even_use():
    secp = fresh_curve("secp256k1")
    base = CurvePoint(secp.g2.x, secp.g2.y)
    for use in range(1, _TABLE_AT_USE):
        scalar_mult(secp, base, use)
        assert held_by(secp, base) == use
    scalar_mult(secp, base, 5)
    assert isinstance(held_by(secp, base), list)
    # counts and tables belong to the base object: an equal one, a copy
    # included, has none
    for twin in (CurvePoint(base.x, base.y), copy.copy(base), copy.deepcopy(base)):
        assert twin == base and held_by(secp, twin) == 0


def test_a_table_belongs_to_one_curve(fresh_registry):
    """A point tabled under toy, and toy's g1 with its shipped table, start
    from no uses under toy built with its other pairing (beta, lam) =
    (870, 151), whose rows hold other images: every multiple there is
    right."""
    toy = curve_by_id(TOY_ID)
    other = CurveParams(**{**_REGISTRY_SPECS[TOY_ID], "beta": 870, "lam": 151})
    assert other != toy
    g1t = as_tuple(toy.g1)
    tabled = with_table(toy, toy.point(*aff_mul(toy.p, 0, g1t, 5)))
    scalar_mult(toy, toy.g1, 1)
    assert isinstance(held_by(toy, toy.g1), list)
    for base in (tabled, toy.g1):
        assert held_by(other, base) == 0
        for k in range(1, toy.n):
            assert as_tuple(scalar_mult(other, base, k)) == aff_mul(toy.p, 0, as_tuple(base), k), k
        # the table is now other's, built on its own rows; toy counts afresh
        assert isinstance(held_by(other, base), list) and held_by(toy, base) == 0
        assert as_tuple(scalar_mult(toy, base, 2)) == aff_mul(toy.p, 0, as_tuple(base), 2)


def generator_tables(name):
    """[g1's table, g2's table] of a registry curve, built on it with every proof."""
    proved = fresh_curve(name)
    return [_table_rows(proved, base) for base in (proved.g1, proved.g2)]


def test_one_shot_processes_load_only_the_generator_tables(fresh_registry):
    """A one-shot CLI process loads its own curve: keygen gives the objects
    g1 and g2 their shipped tables, encrypting one chunk uses them and c,
    d and h once each, and decrypting it counts nothing on u1 or u2 and
    loads no table."""
    assert _TABLE_AT_USE >= 4
    tables = generator_tables("secp256k1")
    rng = random.Random(0x1CE)
    secp = curve_by_id(SECP256K1_ID)
    priv, pub = ecs.keygen(secp, rng)
    assert [held_by(secp, base) for base in (secp.g1, secp.g2)] == tables
    assert [held_by(secp, point) for point in (pub.h, pub.c, pub.d)] == [0, 0, 0]
    curve_mod._loaded.clear()
    secp = curve_by_id(SECP256K1_ID)
    ct = ecs.encrypt(pub, b"one chunk", rng)
    assert [held_by(secp, base) for base in (secp.g1, secp.g2)] == tables
    assert [held_by(secp, point) for point in (pub.h, pub.c, pub.d)] == [1, 1, 1]
    curve_mod._loaded.clear()
    secp = curve_by_id(SECP256K1_ID)
    assert ecs.decrypt(priv, ct) == b"one chunk"
    (chunk,) = ct.chunks
    assert [held_by(secp, point) for point in (chunk.u1, chunk.u2, secp.g1, secp.g2)] == [0] * 4


# --- shipped generator tables ---------------------------------------------


@pytest.mark.parametrize("name, size", [("toy", 512), ("secp256k1", 106_496)])
def test_shipped_tables_are_rebuilt_from_proved_curves(name, size):
    params = fresh_curve(name)
    built = _generator_table_bytes(params)
    assert curve_mod._shipped_table_bytes(params.curve_id) == built
    assert len(built) == size
    digest = hashlib.sha3_256(built).hexdigest()
    assert digest == _TABLE_DIGESTS[params.curve_id], f"recomputed digest: {digest}"


@pytest.mark.parametrize("damage, error", [("flipped", "pinned digest"), ("missing", "cannot read")])
@pytest.mark.parametrize("curve_id", [TOY_ID, SECP256K1_ID])
def test_a_damaged_table_file_fails_the_first_use_of_g1(
    fresh_registry, monkeypatch, tmp_path, curve_id, damage, error
):
    if damage == "flipped":
        data = bytearray(curve_mod._shipped_table_bytes(curve_id))
        data[len(data) // 2] ^= 1
        (tmp_path / f"gtables-{curve_id:02x}.bin").write_bytes(data)
    monkeypatch.setattr(curve_mod, "_TABLE_FILE", str(tmp_path / "gtables-{:02x}.bin"))
    params = curve_by_id(curve_id)  # the load itself reads no table
    got = []
    with pytest.raises(PackageDataError, match=error):
        got.append(scalar_mult(params, params.g1, 5))
    assert got == [] and [held_by(params, base) for base in (params.g1, params.g2)] == [0, 0]
    with pytest.raises(PackageDataError, match=error):
        ecs.keygen(params, random.Random(1))
    # a copy of g1 is any other base: it reads no file, and counts its uses
    copied = CurvePoint(params.g1.x, params.g1.y)
    got = scalar_mult(params, copied, 5)
    assert as_tuple(got) == aff_mul(params.p, 0, as_tuple(params.g1), 5)
    assert held_by(params, copied) == 1
    # so does a curve built with every proof: it counts uses of g1
    proved = fresh_curve(params.name)
    got = scalar_mult(proved, proved.g1, 5)
    assert as_tuple(got) == aff_mul(proved.p, 0, as_tuple(proved.g1), 5)
    assert held_by(proved, proved.g1) == 1


def test_registry_keygen_is_fully_tabled(fresh_registry, monkeypatch):
    """Every one of keygen's five terms is a shipped-table term: one row
    scan per table row, and no doublings, not even to build a row."""
    secp = curve_by_id(SECP256K1_ID)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(secp, "_add", counted("add", secp._add))
    monkeypatch.setattr(secp, "_dbl", counted("dbl", secp._dbl))
    monkeypatch.setattr(curve_mod, "_select", counted("select", curve_mod._select))
    priv, pub = ecs.keygen(secp, random.Random(0x7AB))
    assert calls["dbl"] == 0
    assert calls["select"] == 5 * 52 == 260
    # each sum starts from its first entry: 2 * 52 - 1, 2 * 52 - 1 and 52 - 1
    assert calls["add"] == 103 + 103 + 51
    assert as_tuple(pub.h) == aff_mul(secp.p, 0, as_tuple(secp.g1), priv.z)


def test_the_built_in_inverse_only_sees_blinded_products(fresh_registry, monkeypatch):
    """The built-in inverse only ever sees v*r mod p, where v is the
    product ``_normalize`` inverts and r a fresh value from
    ``field._SYSTEM_RNG``, through keygen, encryption, decryption and
    point addition."""
    secp = curve_by_id(SECP256K1_ID)
    rng = random.Random(0xB11D)
    events = []
    real_blinded_inverse = curve_mod._blinded_inverse

    def recorded_product(v, p):
        events.append(("v", v))
        return real_blinded_inverse(v, p)

    def randrange(start, stop):
        assert (start, stop) == (1, secp.p)
        r = rng.randrange(2, stop)  # never 1
        events.append(("r", r))
        return r

    def spied_pow(base, exp, mod=None):
        if exp == -1:
            events.append(("x", base))
        return pow(base, exp, mod)

    monkeypatch.setattr(curve_mod, "_blinded_inverse", recorded_product)
    monkeypatch.setattr(curve_mod, "_SYSTEM_RNG", SimpleNamespace(randrange=randrange))
    monkeypatch.setattr(curve_mod, "pow", spied_pow, raising=False)  # shadows the built-in
    priv, pub = ecs.keygen(secp, random.Random(0x1E))
    ct = ecs.encrypt(pub, b"one chunk", random.Random(0x2E))
    assert ecs.decrypt(priv, ct) == b"one chunk"
    point_add(secp, pub.c, pub.d)
    calls = [events[i : i + 3] for i in range(0, len(events), 3)]
    # keygen 1, encryption 5 products and 2 additions, decryption 1 and 1, point_add 1
    assert len(calls) == 11
    for (v_kind, v), (r_kind, r), (x_kind, x) in calls:
        assert (v_kind, r_kind, x_kind) == ("v", "r", "x")
        assert x == v * r % secp.p and x != v


# --- multi-scalar core ----------------------------------------------------


@pytest.fixture(scope="module")
def core_curves():
    """Fresh curves by name, each with its bases g1, g2, 5*g1, and 7*g1
    with its fixed-base table."""
    curves = {}
    for name in ("toy", "alt", "secp256k1"):
        params = alt_curve() if name == "alt" else fresh_curve(name)
        g1t = as_tuple(params.g1)
        other = params.point(*aff_mul(params.p, 0, g1t, 5))
        tabled = with_table(params, params.point(*aff_mul(params.p, 0, g1t, 7)))
        curves[name] = params, (params.g1, params.g2, other, tabled)
    return curves


def edge_scalars(params):
    """0, 1, n - 1, lam and n - lam."""
    n = params.n
    lam = ALT_LAM if params.curve_id == ALT_ID else _REGISTRY_SPECS[params.curve_id]["lam"]
    return [0, 1, n - 1, lam, n - lam]


def reference_sum(params, terms):
    """sum k * P over the terms, on the affine helpers."""
    total = None
    for point, k in terms:
        total = aff_add(params.p, 0, total, aff_mul(params.p, 0, as_tuple(point), k))
    return total


def check_core(params, sums, untabled):
    # fresh copies of the untabled bases, one per object: no call here
    # meets a table it did not build
    copies = {id(base): CurvePoint(base.x, base.y) for base in untabled}
    sums = [[(copies.get(id(point), point), k) for point, k in terms] for terms in sums]
    got = linear_combinations(params, sums)
    assert [as_tuple(point) for point in got] == [reference_sum(params, t) for t in sums]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_linear_combinations_match_the_affine_reference(core_curves, data):
    params, bases = core_curves[data.draw(st.sampled_from(sorted(core_curves)))]
    scalar = st.one_of(st.sampled_from(edge_scalars(params)), st.integers(0, params.n - 1))
    term = st.tuples(st.sampled_from(bases + (IDENTITY,)), scalar)
    sums = data.draw(st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=3))
    check_core(params, sums, bases[:3])


@pytest.mark.parametrize("name", ["toy", "alt", "secp256k1"])
def test_linear_combinations_edge_shapes(core_curves, name):
    params, (g1, g2, other, tabled) = core_curves[name]
    n = params.n
    lam = edge_scalars(params)[3]
    sums = [
        [(g1, 0), (g1, n - 1), (g2, lam)],  # a base twice in one sum
        [(IDENTITY, 5), (g1, 1)],  # an identity base; g1 again, across sums
        [(tabled, n - 1), (other, lam), (g1, 0)],  # tabled and untabled in one sum
        [(tabled, 0)],
        [(IDENTITY, n - 1)],  # an identity result
        [(g2, 1), (g2, n - 1)],  # terms that cancel
        [(other, 0), (g2, 0), (g1, 0)],
    ]
    check_core(params, sums, (g1, g2, other))
    for k in edge_scalars(params):
        check_core(params, [[(g1, k), (g2, k)], [(g1, k)]], (g1, g2, other))


def test_linear_combinations_tally_the_logical_operations(toy):
    with count_ops() as ops:
        linear_combinations(toy, [[(toy.g1, 3), (toy.g2, 4)], [(toy.g1, 5)]])
    assert (ops.scalar_mults, ops.point_adds, ops.negations) == (3, 1, 0)
    with count_ops() as ops:
        assert linear_combinations(toy, []) == []
        assert linear_combinations(toy, [[]]) == [IDENTITY]
    assert (ops.scalar_mults, ops.point_adds) == (0, 0)


def test_linear_combinations_count_each_term_as_a_use():
    toy = fresh_curve("toy")
    P, Q = toy.g1, toy.g2
    linear_combinations(toy, [[(P, 1), (Q, 2)], [(P, 3)], [(IDENTITY, 4)]])
    assert (held_by(toy, P), held_by(toy, Q)) == (2, 1)
    # uses 3 to _TABLE_AT_USE of P in one call: the last term meets the new table
    ks = list(range(5, 3 + _TABLE_AT_USE))
    sums = [[(P, k) for k in ks[:-2]] + [(Q, 7)], [(P, k) for k in ks[-2:]]]
    got = linear_combinations(toy, sums)
    assert isinstance(held_by(toy, P), list) and held_by(toy, Q) == 2
    assert [as_tuple(point) for point in got] == [reference_sum(toy, t) for t in sums]


def test_linear_combinations_check_each_base_once(monkeypatch, secp):
    calls = Counter()
    original = curve_mod.is_on_curve

    def counted(params, point):
        calls[point] += 1
        return original(params, point)

    monkeypatch.setattr(curve_mod, "is_on_curve", counted)
    P, Q = secp.point(*as_tuple(secp.g1)), secp.point(*as_tuple(secp.g2))
    linear_combinations(secp, [[(P, 2), (Q, 3)], [(P, 4)]])
    assert calls == {P: 1, Q: 1}


def test_linear_combinations_validate_every_term(toy, secp):
    fake = CurvePoint(1, 1)
    with pytest.raises(ValueError):
        linear_combinations(toy, [[(toy.g1, 1)], [(toy.g2, 1), (fake, 2)]])
    with pytest.raises(ValueError):
        linear_combinations(toy, [[(toy.g1, 1), (secp.g1, 1)]])
    with pytest.raises(ValueError):
        linear_combinations(toy, [[(toy.g1, 1)], [(toy.g1, toy.n)]])  # a seen base, bad scalar
    with pytest.raises(TypeError):
        linear_combinations(toy, [[(toy.g1, 1.5)]])


def test_linear_combinations_shape_is_independent_of_the_scalars(monkeypatch):
    """The decrypt shape makes the same additions, doublings and row scans
    whatever its scalars, without tables and with one."""
    secp = fresh_curve("secp256k1")
    n, lam = secp.n, _REGISTRY_SPECS[SECP256K1_ID]["lam"]
    P, Q = secp.g1, secp.g2
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    rng = random.Random(0x5A5E)
    edges = [0, 1, n - 1, lam, n - lam]
    choices = [(k, k, k) for k in edges] + [tuple(rng.choice(edges) for _ in range(3)) for _ in range(6)]
    choices += [tuple(rng.randrange(n) for _ in range(3)) for _ in range(4)]

    def shape():
        """The one (adds, doublings, row scans) of every choice of scalars."""
        seen = set()
        with monkeypatch.context() as patch:
            patch.setattr(secp, "_add", counted("add", secp._add))
            patch.setattr(secp, "_dbl", counted("dbl", secp._dbl))
            patch.setattr(curve_mod, "_select", counted("select", curve_mod._select))
            for a, b, c in choices:
                # fresh copies of the untabled bases: no table mid-run
                P1 = P if isinstance(held_by(secp, P), list) else CurvePoint(P.x, P.y)
                Q1 = CurvePoint(Q.x, Q.y)
                calls.clear()
                got = linear_combinations(secp, [[(P1, a), (Q1, b)], [(P1, c)]])
                seen.add((calls["add"], calls["dbl"], calls["select"]))
                want = [reference_sum(secp, [(P, a), (Q, b)]), reference_sum(secp, [(P, c)])]
                assert [as_tuple(point) for point in got] == want
        assert len(seen) == 1, seen
        return seen.pop()

    untabled = shape()
    with_table(secp, P)
    tabled = shape()
    assert len(held_by(secp, P)) == 52
    windows = secp._glv.windows
    assert windows == 26
    # 15 additions per row of odd multiples built (P, Q), and each Straus
    # pass starts from its first entry: one addition fewer than its entries
    assert untabled[0] == 2 * 15 + (4 * windows - 1) + (2 * windows - 1) == 184
    # P tabled: Q's row and pass, then 52 entries added to it; the
    # table-only sum starts from its first entry
    assert tabled[0] == 15 + (2 * windows - 1) + 52 + 51 == 169
    # two sums of 5 * (windows - 1) doublings each, and one per row built (P, Q)
    assert untabled[1] == 2 * 5 * (windows - 1) + 2 == 252
    # P tabled: only Q's row and Q's pass in the first sum double
    assert tabled[1] == 5 * (windows - 1) + 1 == 126
    # one scan per window of each GLV half: four in the first sum, two in the second
    assert untabled[2] == 6 * windows == 156
    # P tabled: one scan per table row in each sum, and Q's two halves
    assert tabled[2] == 2 * len(held_by(secp, P)) + 2 * windows == 156


def test_untabled_scalar_mult_makes_66_additions(monkeypatch):
    secp = fresh_curve("secp256k1")
    adds = Counter()
    original = secp._add

    def counted(*args):
        adds["add"] += 1
        return original(*args)

    monkeypatch.setattr(secp, "_add", counted)
    rng = random.Random(0x72)
    for k in (1, secp.n - 1, rng.randrange(secp.n), rng.randrange(secp.n)):
        base = CurvePoint(secp.g2.x, secp.g2.y)  # a fresh object: never a table
        adds.clear()
        assert as_tuple(scalar_mult(secp, base, k)) == reference_sum(secp, [(secp.g2, k)])
        # 15 for the row of odd multiples, 2 * 26 - 1 for the GLV pass
        assert adds["add"] == 15 + 2 * secp._glv.windows - 1 == 66


def test_cross_curve_points_rejected(toy, secp):
    with pytest.raises(ValueError):
        point_add(secp, toy.g1, secp.g1)
    with pytest.raises(ValueError):
        scalar_mult(secp, toy.g1, 5)
    with pytest.raises(ValueError):
        point_negate(toy, secp.g1)


def test_off_curve_points_rejected(toy):
    fake = CurvePoint(1, 1)
    assert not is_on_curve(toy, fake)
    with pytest.raises(ValueError):
        point_add(toy, fake, toy.g1)
    with pytest.raises(ValueError):
        toy.point(1, 1)
    assert is_on_curve(toy, IDENTITY)
    assert is_on_curve(toy, toy.g1)
    assert is_on_curve(toy, CurvePoint(3, 385))  # odd-root twin
    assert not is_on_curve(toy, CurvePoint(3, 5))
    # members hold canonical ints only: no field elements, no unreduced values
    for fake in (
        CurvePoint(FieldElement(3, toy.p), FieldElement(385, toy.p)),
        CurvePoint(3 + toy.p, 385),
        CurvePoint(3, 385 - toy.p),
        CurvePoint(None, 385),
    ):
        assert not is_on_curve(toy, fake)
        with pytest.raises(ValueError):
            point_negate(toy, fake)
    with pytest.raises(ValueError):
        toy.point(3 + toy.p, 385 - toy.p)  # nothing is reduced


# --- compression ----------------------------------------------------------


def test_compress_roundtrip_all_toy_points(toy):
    for P in enumerate_group(toy):
        blob = compress(toy, P)
        if P.is_identity:
            assert blob == b"\x00"
        else:
            assert len(blob) == compressed_size(toy) == 3
            assert blob[0] in (2, 3)
            assert blob[0] == 2 + P.y % 2
        assert decompress(toy, blob) == P


def test_compress_roundtrip_secp(secp):
    rng = random.Random(17)
    for _ in range(6):
        P = scalar_mult(secp, secp.g1, rng.randrange(1, secp.n))
        blob = compress(secp, P)
        assert len(blob) == 33
        assert decompress(secp, blob) == P


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"\x01\x00\x03",  # bad prefix
        b"\x04\x00\x03",  # uncompressed prefix unsupported
        b"\x02\x00",  # truncated x
        b"\x02\x00\x03\x00",  # trailing byte
        b"\x00\x00",  # identity must be exactly one byte
        b"\x02\x04\x1b",  # x == p, not reduced
        b"\x02\xff\xff",  # x way out of range
    ],
)
def test_decompress_rejects_malformed(toy, blob):
    with pytest.raises(ParseError):
        decompress(toy, blob)


def test_decompress_rejects_nonresidue_x(toy):
    # x = 0: rhs = 7, a non-residue mod 1051 (no point with x = 0 exists)
    assert all(P.is_identity or P.x != 0 for P in enumerate_group(toy))
    with pytest.raises(ParseError):
        decompress(toy, b"\x02\x00\x00")


def test_no_served_curve_has_a_point_with_y_zero(toy, alt, secp):
    # decompress has no y == 0 case: such a point would have order 2
    for params in (toy, alt):
        assert all((x * x * x + params.b) % params.p for x in range(params.p)), params
    p = secp.p
    assert pow(p - 7, (p - 1) // 3, p) != 1  # -7 is no cube mod p, so x^3 + 7 never vanishes


def test_compress_rejects_foreign_point(toy, secp):
    with pytest.raises(ValueError):
        compress(toy, secp.g1)


# --- generator derivation and curve search --------------------------------


def test_derive_g2_reproduces_registry(toy, secp):
    assert derive_g2(TOY_ID, toy.p, toy.b, toy.n) == as_tuple(toy.g2)
    assert derive_g2(SECP256K1_ID, secp.p, secp.b, secp.n) == as_tuple(secp.g2)


def test_one_square_root_attempt_per_candidate_x(toy, monkeypatch):
    """derive_g2 asks no Euler test first: a failed square root is the
    answer "not a square"."""
    roots = []
    real_sqrt = field_mod.FieldElement.sqrt
    monkeypatch.setattr(field_mod.FieldElement, "is_square", None)  # never asked
    monkeypatch.setattr(field_mod.FieldElement, "sqrt", lambda self: roots.append(1) or real_sqrt(self))
    assert derive_g2(TOY_ID, toy.p, toy.b, toy.n) == as_tuple(toy.g2)
    assert len(roots) == 4  # counters 0 to 3


def test_derive_g2_reproduces_alt_fixture(alt):
    assert derive_g2(alt.curve_id, alt.p, alt.b, alt.n) == as_tuple(alt.g2)


def test_derive_g2_depends_on_domain_tag(toy, monkeypatch):
    monkeypatch.setattr(curve_mod, "G2_DOMAIN_TAG", b"different-tag")
    other = derive_g2(TOY_ID, toy.p, toy.b, toy.n)
    assert other != as_tuple(toy.g2)
    # still a valid order-n point
    P = toy.point(*other)
    assert scalar_mult(toy, P, toy.n - 1) == point_negate(toy, P)


def test_derived_g2_has_order_n(toy, secp):
    for params in (toy, secp):
        assert not params.g2.is_identity
        assert params.g2 != params.g1
        assert point_add(
            params, scalar_mult(params, params.g2, params.n - 1), params.g2
        ) == IDENTITY


def test_toy_curve_search_reproduces_registry(toy):
    found = toy_curve_search()
    assert found == toy
    assert found.p == 1051 and found.n == 1093


# --- operation counting ---------------------------------------------------


def test_count_ops_tallies_public_calls(toy):
    with count_ops() as ops:
        scalar_mult(toy, toy.g1, 25)
        point_add(toy, toy.g1, toy.g2)
        point_add(toy, toy.g1, IDENTITY)
        point_negate(toy, toy.g1)
    # the benchmark harness reads the tally as vars(ops)
    assert vars(ops) == {"point_adds": 2, "scalar_mults": 1, "negations": 1, "hashes": 0}


def test_count_ops_ignores_ladder_internals(toy):
    # a scalar_mult is one scalar_mult, not hundreds of internal adds
    with count_ops() as ops:
        scalar_mult(toy, toy.g1, toy.n - 1)
    assert ops.point_adds == 0
    assert ops.scalar_mults == 1


def test_count_ops_nests_and_restores(toy):
    with count_ops() as outer:
        point_add(toy, toy.g1, toy.g1)
        with count_ops() as inner:
            point_add(toy, toy.g1, toy.g1)
        point_add(toy, toy.g1, toy.g1)
    assert inner.point_adds == 1
    assert outer.point_adds == 2  # inner block not double-counted
    # outside any block nothing is recorded (would raise otherwise)
    point_add(toy, toy.g1, toy.g1)


def test_count_ops_counts_each_thread_apart(toy):
    # both blocks are open at once, and the threads take turns between the
    # barrier's phases: each counter sees only its own thread's operations
    barrier = threading.Barrier(2, timeout=30)
    seen = {}

    def count(name, op, times):
        with count_ops() as ops:
            barrier.wait()
            for _ in range(times):
                op()
                barrier.wait()
            barrier.wait()
        seen[name] = vars(ops)

    adds = threading.Thread(target=count, args=("adds", lambda: point_add(toy, toy.g1, toy.g2), 3))
    mults = threading.Thread(target=count, args=("mults", lambda: scalar_mult(toy, toy.g1, 5), 3))
    with count_ops() as main:
        adds.start()
        mults.start()
        adds.join()
        mults.join()
    assert seen == {
        "adds": {"point_adds": 3, "scalar_mults": 0, "negations": 0, "hashes": 0},
        "mults": {"point_adds": 0, "scalar_mults": 3, "negations": 0, "hashes": 0},
    }
    assert vars(main) == {"point_adds": 0, "scalar_mults": 0, "negations": 0, "hashes": 0}
