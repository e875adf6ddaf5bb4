import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from tworoots import forms, linalg
from tworoots.diagram import cartan, path_diagram, y_diagram
from tworoots.forms import decompose_s2v, gram, radical_basis
from tworoots.symsquare import canonical_basis


def low_rank(rng, nrows, ncols, rank, size):
    """A random integer matrix of at most the given rank, as a product of
    an nrows x rank and a rank x ncols factor."""
    if rank == 0:
        return linalg.mat([[0] * ncols for _ in range(nrows)])
    left = [[rng.randint(-size, size) for _ in range(rank)]
            for _ in range(nrows)]
    right = [[rng.randint(-size, size) for _ in range(ncols)]
             for _ in range(rank)]
    return linalg.mat(linalg.exact(left) @ linalg.exact(right))


@pytest.mark.parametrize("seed", range(12))
def test_nullspace_of_random_low_rank_matrices(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    m = low_rank(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)),
                 rng.choice([2, 9, 10 ** 6]))
    null = linalg.nullspace(m)
    for v in null:
        assert all(x == 0 for x in linalg.exact(m) @ linalg.exact(v))
    assert len(null) == ncols - linalg.rank(m)
    # rank over Q is at least rank mod p
    for p in (2, 3, 1000003):
        assert linalg.rank(m) >= ncols - len(linalg.nullspace(m, p))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_nullspace_mod_p_spans_the_enumerated_kernel(seed, p):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
    m = low_rank(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)),
                 rng.choice([2, 9, 10 ** 6]))
    kernel = {v for v in itertools.product(range(p), repeat=ncols)
              if all(x % p == 0 for x in linalg.exact(m) @ linalg.exact(v))}
    null = linalg.nullspace(m, p)
    assert set(null) <= kernel
    span = {tuple(sum(c * x for c, x in zip(cs, col)) % p
                  for col in zip(*null)) if null else (0,) * ncols
            for cs in itertools.product(range(p), repeat=len(null))}
    assert span == kernel and len(kernel) == p ** len(null)


def test_rref_of_fraction_rows_matches_scaled_integer_rows():
    rng = random.Random(7)
    rows = [[Fraction(rng.randint(-20, 20), rng.randint(1, 6))
             for _ in range(7)] for _ in range(5)]
    rows.append([x + y for x, y in zip(rows[0], rows[1])])
    scaled = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator
        scaled.append([int(x * den) for x in row])
    assert linalg.nullspace(rows) == linalg.nullspace(scaled)
    assert linalg.rank(rows) == linalg.rank(scaled) == 5
    kernel = linalg.nullspace(rows)
    assert all(isinstance(x, Fraction) for v in kernel for x in v)
    for v in kernel:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    # columns 5 and 6 are free: one vector for each, 1 there and 0 at the other
    assert [v[5:] for v in kernel] == [(1, 0), (0, 1)]


def test_inverse_of_the_e8_cartan_matrix():
    a = cartan(y_diagram(1, 2, 4))
    eye = linalg.mat(linalg.exact(linalg.inverse(a)) @ linalg.exact(a))
    assert eye == tuple(tuple(int(i == j) for j in range(8))
                        for i in range(8))


def test_singular_inverse_raises():
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse(((1, 2), (2, 4)))
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse(cartan(y_diagram(2, 2, 2)))  # affine E6


def test_empty_matrix():
    assert linalg.rank(()) == 0
    assert linalg.nullspace(()) == ()
    assert linalg.inverse(()) == ()


def reference_rref_mod(m, p):
    """Gauss-Jordan mod p on lists of Python ints, each pivot row scaled
    to 1: the reference for the uint64 elimination."""
    rows = [[x % p for x in row] for row in m]
    pivots, r = [], 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, tuple(pivots)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1, 4294967291])
@pytest.mark.parametrize("seed", range(8))
def test_rref_mod_p_with_residues_near_p(seed, p):
    """Entries near p - 1 give products near (p - 1)**2, which for the
    largest prime below 2**32 is within 2**36 of 2**64; the entries are
    also offset by multiples of p past int64, which only the reduction to
    residues removes."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    if seed % 2:
        m = [[p - rng.randint(1, 4) for _ in range(ncols)]
             for _ in range(nrows)]
    else:  # low rank over Q, negative entries are residues near p
        m = [list(row) for row in low_rank(
            rng, nrows, ncols, rng.randint(0, min(nrows, ncols)), 9)]
    m = linalg.mat([[x + p * rng.randint(-2**70, 2**70) for x in row]
                    for row in m])
    rows, pivots, den = linalg.rref_int(m, p)
    assert (rows, pivots, den) == (*reference_rref_mod(m, p), 1)
    null = linalg.nullspace(m, p)
    assert len(null) == ncols - len(pivots)
    for v in null:
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in m)
        assert all(type(x) is int and 0 <= x < p for x in v)
    assert linalg.rank(m) >= len(pivots)


def test_modulus_past_uint64_products_is_refused():
    with pytest.raises(ValueError, match="below 2"):
        linalg.rref_int(((1, 2), (3, 4)), 2**32)
    with pytest.raises(ValueError, match="below 2"):
        linalg.nullspace(((1, 2),), 2**32)


BAD_MODULI = [1, 0, -3, 4, 2**32]
MOD_P_ENTRIES = {"rref_int": linalg.rref_int,
                 "nullspace_rref": linalg.nullspace_rref,
                 "nullspace": linalg.nullspace, "radical_basis": radical_basis}


@pytest.mark.parametrize("p", BAD_MODULI)
@pytest.mark.parametrize("m", [((1, 1), (2, 3)), ()], ids=["2x2", "empty"])
@pytest.mark.parametrize("entry", sorted(MOD_P_ENTRIES))
def test_every_mod_p_entry_refuses_a_bad_modulus(entry, m, p):
    with pytest.raises(ValueError, match="^modulus must be"):
        MOD_P_ENTRIES[entry](m, p)


@pytest.mark.parametrize("p", BAD_MODULI)
@pytest.mark.parametrize("d", [path_diagram(4), path_diagram(2)],
                         ids=["A4", "A2"])
def test_gram_and_decompose_refuse_a_bad_modulus(d, p):
    """A2 has no 2-roots, so its basis and every Gram of it are empty."""
    mats = [e.matrix for e in canonical_basis(d).elements]
    assert bool(mats) == (d.n == 4)
    for call in (lambda: gram(d, mats, p), lambda: gram(d, (), p),
                 lambda: decompose_s2v(d, p)):
        with pytest.raises(ValueError, match="^modulus must be"):
            call()


def test_nullspace_over_q_never_checks_a_modulus(monkeypatch):
    def refuse(p):
        raise AssertionError("check_prime(%d) called" % p)
    monkeypatch.setattr(linalg, "check_prime", refuse)
    # certified zero, then two Bareiss fallbacks: singular over Q, and
    # nonsingular over Q but singular mod CERT_PRIME
    assert linalg.nullspace(((1, 2), (3, 4))) == ()
    assert linalg.nullspace(((1, 2), (2, 4))) == ((Fraction(-2), 1),)
    assert linalg.nullspace(((linalg.CERT_PRIME, 0), (0, 1))) == ()


@pytest.mark.parametrize("route", [
    linalg.rank,
    linalg.rref_int,
    lambda m: linalg.rref_int(m, 3),
    linalg.nullspace_rref,
    lambda m: linalg.nullspace(m, 3),
], ids=["rank", "rref_int", "rref_int-mod-p", "nullspace_rref",
        "nullspace-mod-p"])
@pytest.mark.parametrize("m", [((1, 2), (3,)), ((1,), (2, Fraction(1, 2)))],
                         ids=["short-second", "long-second"])
def test_ragged_rows_are_refused(route, m):
    with pytest.raises(ValueError, match="matrix rows must all have length"):
        route(m)


@pytest.mark.parametrize("m", [((1, 2), (3,)), ((1,), (2, Fraction(1, 2)))],
                         ids=["short-second", "long-second"])
def test_ragged_rows_are_refused_by_the_certificate(m):
    """nullspace over Q reads the rows as an array before rref_int."""
    with pytest.raises(ValueError):
        linalg.nullspace(m)


def _python_residues(m, p):
    return [[x % p for x in linalg._integer_row(row)] for row in m]


@pytest.mark.parametrize("p", [2, 3, linalg.CERT_PRIME, 4294967291])
@pytest.mark.parametrize("seed", range(4))
def test_residues_are_python_remainders(seed, p):
    """Entries near +-2**61 and -2**63 through numpy's %, ints past int64
    and Fraction rows row by row, each against Python's %."""
    rng = random.Random(seed)
    near = [[rng.choice([1, -1]) * 2**61 + rng.randint(-9, 9)
             for _ in range(5)] for _ in range(4)]
    near[0][0] = -2**63
    past = [row[:] for row in near]
    past[1][2] = 2**64 + rng.randint(-9, 9)
    fractions = [[Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 99))
                  for _ in range(5)] for _ in range(4)]
    fractions[2] = [rng.randint(-9, 9) for _ in range(5)]  # an int row
    for m in (near, past, fractions):
        got = linalg.residues(linalg.mat(m), p)
        assert got.dtype == np.uint64 and got.shape == (4, 5)
        assert got.tolist() == _python_residues(m, p)
    assert linalg.int_array(linalg.mat(near)) is not None
    assert linalg.int_array(linalg.mat(past)) is None


@pytest.mark.parametrize("m", [(), ((),), ((), ())])
def test_residues_of_empty_matrices(m):
    got = linalg.residues(m, 5)
    assert got.dtype == np.uint64
    assert got.shape == (len(m), 0)


@pytest.mark.parametrize("m", [
    ((0, 0, 0), (0, 0, 0)),
    ((0, 0),),
    ((1, 2, 3),),
    ((Fraction(1, 2), -1),),
    ((2**31 - 1, 0),),  # zero mod the certificate prime, rank 1 over Q
], ids=["zero", "zero-row", "row", "fraction-row", "row-zero-mod-P"])
def test_nullspace_of_zero_and_one_row_matrices(m):
    null = linalg.nullspace(m)
    assert null == linalg.nullspace_rref(m)
    assert len(null) == len(m[0]) - linalg.rank(m)
    for v in null:
        assert all(isinstance(x, Fraction) for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    ints = [linalg._integer_row(row) for row in m]
    for p in (2, 3):
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0
                   for v in linalg.nullspace(m, p) for row in ints)
    if not any(x for row in m for x in row):
        assert null == tuple(tuple(Fraction(int(i == j))
                                   for j in range(len(m[0])))
                             for i in range(len(m[0])))


def test_certificate_falls_back_when_singular_mod_the_prime():
    """Nonsingular over Q but singular mod CERT_PRIME: the rank mod the
    prime proves nothing, and the Bareiss route finds the zero kernel."""
    p = linalg.CERT_PRIME
    m = ((p, 0), (0, 1))
    assert len(linalg.rref_int(m, p)[1]) == 1
    assert linalg.nullspace(m) == () == linalg.nullspace_rref(m)
    singular = ((p, 2 * p), (1, 2))
    assert linalg.nullspace(singular) == linalg.nullspace_rref(singular) \
        == ((Fraction(-2), Fraction(1)),)


@pytest.mark.parametrize("x, want", [
    (((1, -7), (0, 2)), 7),
    ([[True, False]], 1),
    ([], None),  # numpy reads an empty list as float64
    (((1, Fraction(1, 2)),), None),
    (((Fraction(4, 2), 1),), None),
    (((2**63, 0),), None),
    (((-2**63, 1),), 2**63),
    (((0.5, 1),), None),
], ids=["ints", "bools", "empty", "fraction", "integral-fraction",
        "past-int64", "min-int64", "float"])
def test_int_array_takes_only_what_int64_keeps(x, want):
    got = linalg.int_array(x)
    if want is None:
        assert got is None
    else:
        a, s = got
        assert a.dtype.kind in "bi" and a.tolist() == [list(r) for r in x]
        assert type(s) is int and s == want


def test_int_array_refuses_a_ragged_sequence():
    with pytest.raises(ValueError):
        linalg.int_array(((1, 2), (3,)))


def _summand_grams():
    """The Gram of every orbit summand of A4-A8, D4-D8 and E6-E8 and the
    whole-module Grams of Y(2,2,3) and Y(1,2,6)."""
    finite = [path_diagram(n) for n in range(4, 9)]
    finite += [y_diagram(1, 1, n - 3) for n in range(4, 9)]
    finite += [y_diagram(1, 2, n - 4) for n in range(6, 9)]
    for d in finite:
        basis = canonical_basis(d)
        for summand in basis.summands():
            yield forms.gram(d, [basis.elements[k].matrix for k in summand])
    for arms in ((2, 2, 3), (1, 2, 6)):
        d = y_diagram(*arms)
        yield forms.gram(d, [e.matrix for e in canonical_basis(d).elements])


def test_certificate_pivots_are_the_rank_on_the_paper_grams():
    grams = list(_summand_grams())
    assert len(grams) == 21
    for g in grams:
        assert linalg.int_array(g) is not None
        pivots = linalg.rref_mod(linalg.residues(g, linalg.CERT_PRIME),
                                 linalg.CERT_PRIME)
        assert len(pivots) == len(g) - len(linalg.nullspace_rref(g))
        assert pivots == linalg.rref_int(g)[1]
        assert pivots == linalg.rref_int(g, linalg.CERT_PRIME)[1]


@pytest.mark.parametrize("seed", range(6))
def test_certificate_reduces_int64_entries_as_python_ints_do(seed):
    """Negative entries and entries near +-2**61 reduce mod CERT_PRIME in
    numpy to the residues that Python's % gives."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(2, 9), rng.randint(3, 9)
    m = [list(row) for row in low_rank(
        rng, nrows, ncols, rng.randint(1, min(nrows, ncols - 1)), 9)]
    m = linalg.mat([[x + linalg.CERT_PRIME * rng.randint(-2**30, 2**30)
                     for x in row] for row in m])
    assert linalg.int_array(m) is not None
    assert linalg.rref_mod(linalg.residues(m, linalg.CERT_PRIME),
                           linalg.CERT_PRIME) == \
        linalg.rref_int(m, linalg.CERT_PRIME)[1] == \
        reference_rref_mod(m, linalg.CERT_PRIME)[1]
