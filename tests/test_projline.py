"""Projective-line algebra: antipodal map, pullbacks, fixed spaces, splittings."""

import numpy as np
import pytest

from twistorcheck import (CoeffPoly, DegreeError, NonInvolutiveError, P1Point,
                          SigmaCoordRule, SplittingType, kernel_splitting,
                          reality_fixed_space, tau_pullback)

Z_RULE = SigmaCoordRule(0, -1, 2)


def test_antipodal_examples():
    img = P1Point.std(0j).antipodal()
    assert img.chart == "inf" and img.value == 0
    assert P1Point.std(1 + 0j).antipodal().same_point(P1Point.std(-1 + 0j))
    assert P1Point.std(1j).antipodal().same_point(P1Point.std(-1j))


def test_antipodal_involution_no_fixed_points(rng):
    for _ in range(10_000):
        chart = "std" if rng.random() < 0.5 else "inf"
        p = P1Point(chart, complex(rng.standard_normal(), rng.standard_normal()))
        q = p.antipodal()
        assert not p.same_point(q, tol=1e-9)
        back = q.antipodal()
        assert back.chart == p.chart and abs(back.value - p.value) < 1e-14


def test_tau_pullback_fixed_linear():
    s = CoeffPoly(2, [0, 1, 0])  # z
    assert tau_pullback(s, Z_RULE) == s


def test_tau_pullback_constant():
    s = CoeffPoly(2, [1, 0, 0])
    assert tau_pullback(s, Z_RULE) == CoeffPoly(2, [0, 0, -1])


def test_tau_pullback_involutive():
    s = CoeffPoly(2, [1, 1j, 1])
    assert tau_pullback(tau_pullback(s, Z_RULE), Z_RULE) == s


def test_tau_pullback_degree_mismatch():
    with pytest.raises(DegreeError):
        tau_pullback(CoeffPoly(3, [1, 0, 0, 0]), Z_RULE)


def test_parity_rejects_odd_self_pairing():
    with pytest.raises(NonInvolutiveError):
        reality_fixed_space((1,), (SigmaCoordRule(0, 1, 1),))
    with pytest.raises(NonInvolutiveError):
        reality_fixed_space((1, 1), (SigmaCoordRule(1, 1, 1),
                                     SigmaCoordRule(0, 1, 1)))


def test_fixed_space_self_paired_quadratic():
    basis = reality_fixed_space((2,), (Z_RULE,), names=("z",))
    assert basis.nparams == 3
    z0, r = 0.4 - 0.7j, 1.3
    poly, = basis.embed([z0.real, z0.imag, r])
    assert poly == CoeffPoly(2, [z0, r, -z0.conjugate()])


def test_fixed_space_swap_pair():
    rules = (SigmaCoordRule(1, 1, 2), SigmaCoordRule(0, 1, 2))
    basis = reality_fixed_space((2, 2), rules, names=("x", "y"))
    assert basis.nparams == 6
    x0, x1, x2 = 1 + 2j, -0.5j, 3 - 1j
    params = [x0.real, x0.imag, x1.real, x1.imag, x2.real, x2.imag]
    x, y = basis.embed(params)
    assert x == CoeffPoly(2, [x0, x1, x2])
    assert y == CoeffPoly(2, [x2.conjugate(), -x1.conjugate(), x0.conjugate()])


def test_fixed_space_quaternionic_pair():
    rules = (SigmaCoordRule(1, -1, 1), SigmaCoordRule(0, 1, 1))
    basis = reality_fixed_space((1, 1), rules, names=("a", "b"))
    assert basis.nparams == 4
    a, b = 0.3 + 0.9j, -1.1 + 0.2j
    pa, pb = basis.embed([a.real, a.imag, -b.real, b.imag])
    # lead coefficients are (a, -conj(b)); the partner carries (b, conj(a))
    assert pa == CoeffPoly(1, [a, -b.conjugate()])
    assert pb == CoeffPoly(1, [b, a.conjugate()])


@pytest.mark.parametrize("degrees,rules", [
    ((2,), (Z_RULE,)),
    ((2, 2), (SigmaCoordRule(1, 1, 2), SigmaCoordRule(0, 1, 2))),
    ((1, 1), (SigmaCoordRule(1, -1, 1), SigmaCoordRule(0, 1, 1))),
    ((4,), (SigmaCoordRule(0, 1, 4),)),
    ((0,), (SigmaCoordRule(0, 1, 0),)),
    ((2, 1, 1, 2), (SigmaCoordRule(3, 1, 2), SigmaCoordRule(2, -1, 1),
                    SigmaCoordRule(1, 1, 1), SigmaCoordRule(0, 1, 2))),
])
def test_fixed_space_dimension_and_tau_fixedness(degrees, rules, rng):
    basis = reality_fixed_space(degrees, rules)
    assert basis.nparams == sum(k + 1 for k in degrees)
    params = rng.standard_normal(basis.nparams)
    polys = basis.embed(params)
    for i, rule in enumerate(rules):
        pulled = tau_pullback(polys[rule.partner],
                              SigmaCoordRule(0, rule.sign, rule.twist))
        assert (pulled - polys[i]).is_zero(1e-12)


def test_kernel_splitting_linearized_cone_row():
    row = [CoeffPoly(2, [0, 0, 1]), CoeffPoly(2, [1, 0, 0]),
           CoeffPoly(2, [0, -2, 0])]
    t = kernel_splitting([row], [2, 2, 2], [4])
    assert t.degrees == (1, 1)
    assert sum(t.degrees) == 2 + 2 + 2 - 4


def test_kernel_splitting_trivial():
    t = kernel_splitting([[CoeffPoly(0, [1])]], [3], [3])
    assert t.degrees == ()
    # no sources: the generic rank is 0, so the kernel rank is 0 too
    for exact in (False, True):
        assert kernel_splitting([[], []], [], [1, 2], exact=exact).degrees == ()
        assert kernel_splitting([], [], [], exact=exact).degrees == ()


def test_kernel_splitting_rank_one():
    t = kernel_splitting([[CoeffPoly(2, [0, 0, 1]), CoeffPoly(2, [1])]],
                         [2, 2], [4])
    assert t.degrees == (0,)


def test_kernel_splitting_zero_matrix_full_source():
    zero = CoeffPoly(2, [0, 0, 0])
    t = kernel_splitting([[zero, CoeffPoly(1, [0, 0])]], [2, 3], [4])
    assert t.degrees == (3, 2)


def test_h0_examples():
    assert SplittingType((1, 1)).h0(0) == 4
    assert SplittingType((1, 1)).h0(-2) == 0
    assert SplittingType((0,)).h0(-1) == 0


def _brute_twist_nullity(entries, src, tgt, m):
    """Independent nullspace count: assemble multiplication columns directly."""
    cols = []
    for i, k in enumerate(src):
        for c in range(max(0, k + m + 1)):
            blocks = []
            for j, d in enumerate(tgt):
                vec = np.zeros(max(0, d + m + 1), dtype=complex)
                e = entries[j][i]
                if e is not None:
                    for p, coeff in enumerate(e.coeffs):
                        if p + c < len(vec):
                            vec[p + c] += coeff
                blocks.append(vec)
            cols.append(np.concatenate(blocks) if blocks else np.zeros(0))
    if not cols:
        return 0
    mat = np.array(cols).T
    if mat.shape[0] == 0:
        return len(cols)
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(svals > 1e-7 * max(svals[0], 1e-30)))
    return len(cols) - rank


def test_kernel_splitting_against_brute_force(rng):
    for trial in range(20):
        nt = int(rng.integers(1, 4))
        ns = int(rng.integers(1, 5))
        src = [int(rng.integers(0, 4)) for _ in range(ns)]
        tgt = [int(rng.integers(0, 4)) for _ in range(nt)]
        entries = []
        for j in range(nt):
            row = []
            for i in range(ns):
                bound = tgt[j] - src[i]
                if bound < 0 or rng.random() < 0.2:
                    row.append(None)
                else:
                    coeffs = rng.integers(-3, 4, size=bound + 1).astype(complex)
                    row.append(CoeffPoly(bound, list(coeffs)))
            entries.append(row)
        t = kernel_splitting(entries, src, tgt)
        for m in range(-4, 5):
            assert t.h0(m) == _brute_twist_nullity(entries, src, tgt, m), \
                f"trial {trial}, twist {m}: {t}"


def test_degree_sum_for_full_row_rank(rng):
    # one generically surjective row: kernel degrees sum to sum(src) - sum(tgt)
    for _ in range(10):
        src = [int(rng.integers(1, 4)) for _ in range(3)]
        tgt = [max(src) + int(rng.integers(0, 2))]
        entries = [[CoeffPoly(tgt[0] - s,
                              list(rng.integers(-3, 4,
                                                size=tgt[0] - s + 1).astype(complex)))
                    for s in src]]
        if all(e.is_zero() for e in entries[0]):
            continue
        t = kernel_splitting(entries, src, tgt)
        assert sum(t.degrees) == sum(src) - sum(tgt)
