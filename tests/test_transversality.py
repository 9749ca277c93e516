import random
from fractions import Fraction

import pytest

from hilbertpoly import linalg
from hilbertpoly.arith import MultiPoly, parse_poly
from hilbertpoly.linalg import det, mat_mul, rank, transpose
from hilbertpoly.partitions import Partition, enumerate_partitions, jumps
from hilbertpoly.transversality import (
    Flag,
    GrassPoint,
    InputInstance,
    gauss_point,
    in_Q_lambda,
    in_cell,
    jacobian_at,
    random_flag,
    schubert_cell_coords,
    transversal_at,
    transversality_report,
)
from oracles import (
    TruncSeries,
    cell_partition_of,
    contains,
    dimension_jumps,
    in_schubert_variety,
    input_condition_at,
    series_inverse,
    substituted_derivatives,
)

X3 = ("x0", "x1", "x2")
X4 = ("x0", "x1", "x2", "x3")

CONIC = InputInstance(polys=(parse_poly("x0*x2 - x1^2", X3),), n=2, m=1)
LINE = InputInstance(polys=(parse_poly("x2", X3),), n=2, m=1)
QUADRIC = InputInstance(polys=(parse_poly("x0*x3 - x1*x2", X4),), n=3, m=2)
# three quadrics whose Jacobian has rank n - m = 2 along the curve
TWISTED_CUBIC = InputInstance(polys=tuple(parse_poly(f, X4) for f in (
    "x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")), n=3, m=1)


def flag_from_columns(*cols):
    n = len(cols[0]) - 1
    basis = [[Fraction(cols[j][i]) for j in range(n + 1)] for i in range(n + 1)]
    return Flag.from_basis(basis)


# flag adapted to the conic at (1,1,1): F_0 = (1,2,3) lies on the tangent
CONIC_FLAG = flag_from_columns((1, 2, 3), (0, 1, 0), (0, 0, 1))
# flag adapted to the quadric at (1,2,3,6): F_0 = (1,3,3,9) on the tangent plane
QUADRIC_FLAG = flag_from_columns((1, 3, 3, 9), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


# -- flags


def test_flag_consistency_check():
    # dual row i is the linear form that vanishes on l_0..l_{n-1-i}, the
    # columns spanning F_{n-1-i}, and takes 1 at l_{n-i}
    for n in range(5):
        for seed in range(10):
            flag = random_flag(n, seed)
            rows = mat_mul(flag.dual_matrix, flag.basis)
            assert len(rows) == n
            for i, row in enumerate(rows):
                assert not any(row[:n - i]) and row[n - i] == 1
    f = Flag.from_basis(((1, 0), (0, 1)))
    assert f.dual_matrix == ((0, 1),)


def test_flag_basis_inverted_once(monkeypatch):
    calls = []
    real = linalg.inverse
    monkeypatch.setattr(linalg, "inverse", lambda a: calls.append(len(a)) or real(a))
    flag = flag_from_columns((1, 2, 3), (0, 1, 0), (0, 0, 1))
    assert calls == [3]
    direct = Flag(flag.basis)
    assert calls == [3, 3]
    assert direct == flag and direct.inverse == flag.inverse == tuple(map(tuple, real(flag.basis)))
    # the chart and the report solve their systems; they invert nothing
    schubert_cell_coords(GrassPoint(((1, 2, 3), (0, 1, 0))), flag, Partition([1]))
    rep = transversality_report(CONIC, (1, 1, 1), flag, Partition([1]))
    assert rep["on_cell"] and rep["transversal"]
    assert calls == [3, 3]
    # the inverse is computed, never passed in
    with pytest.raises(TypeError):
        Flag(basis=flag.basis, inverse=flag.inverse)


def test_rank_deficient_span_is_refused():
    for rows in (((1, 2, 3), (2, 4, 6)), ((0, 0, 0),), ((1, 0, 1), (0, 1, 0), (1, 1, 1))):
        with pytest.raises(ValueError, match="rank deficient"):
            GrassPoint(rows)
    assert GrassPoint(((1, 2, 3), (0, 1, 0))).dim == 1


def test_gauss_point_ranks_no_kernel(monkeypatch):
    # the kernel basis has full rank by construction; the point made of
    # it equals the checked one
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: calls.append(1) or real(rows))
    A = gauss_point(CONIC, (1, 1, 1))
    assert calls == []
    assert A == GrassPoint(A.span_matrix) and A.dim == 1


@pytest.mark.parametrize("text, variables, m, detail", [
    ("x*z - y^2", ("x", "y", "z"), 1, "must live in x0..x2"),
    ("x0*x2 - x1", X3, 1, "must be homogeneous"),
    ("x0*x2 - x1^2", X3, -1, "need 0 <= m <= n"),
    ("x0*x2 - x1^2", X3, 3, "need 0 <= m <= n"),
])
def test_input_instance_refuses_a_bad_system(text, variables, m, detail):
    with pytest.raises(ValueError, match=detail):
        InputInstance(polys=(parse_poly(text, variables),), n=2, m=m)


def test_singular_flag_basis_is_refused():
    singular = ((1, 2, 0), (2, 4, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="flag basis is singular"):
        Flag.from_basis(singular)
    with pytest.raises(ValueError, match="flag basis is singular"):
        Flag(singular)
    for not_square in (((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (0, 0))):
        with pytest.raises(ValueError, match="not square"):
            Flag.from_basis(not_square)


def test_random_flag_deterministic_and_nonsingular():
    for seed in range(20):
        f1 = random_flag(4, seed)
        f2 = random_flag(4, seed)
        assert f1 == f2
        assert det(f1.basis) != 0


# -- input condition and Gauss map


def test_input_condition_examples():
    assert input_condition_at(CONIC, (1, 1, 1))
    sq = InputInstance(polys=(parse_poly("x0^2", X3),), n=2, m=1)
    assert not input_condition_at(sq, (0, 0, 1))
    with pytest.raises(ValueError):
        input_condition_at(CONIC, (1, 1, 2))


def test_gauss_point_conic():
    A = gauss_point(CONIC, (1, 1, 1))
    # kernel of (1, -2, 1): both rows must annihilate the gradient
    for row in A.span_matrix:
        assert row[0] - 2 * row[1] + row[2] == 0
    assert rank([list(r) for r in A.span_matrix]) == 2


def test_gauss_point_linear_variety():
    inst = InputInstance(polys=(parse_poly("x2", X3),), n=2, m=1)
    A = gauss_point(inst, (1, 5, 0))
    for row in A.span_matrix:
        assert row[2] == 0


def test_gauss_point_whole_space():
    inst = InputInstance(polys=(), n=3, m=3)
    A = gauss_point(inst, (1, 0, 0, 0))
    assert A.dim == 3


def test_gauss_point_rank_guard():
    sq = InputInstance(polys=(parse_poly("x0^2", X3),), n=2, m=1)
    with pytest.raises(ValueError):
        gauss_point(sq, (0, 0, 1))


def test_report_at_a_singular_point_is_not_smooth():
    # the node of x1^2*x2 = x0^3 + x0^2*x2: a curve (m = 1) whose
    # Jacobian vanishes at (0, 0, 1)
    node = InputInstance(polys=(parse_poly("x1^2*x2 - x0^3 - x0^2*x2", X3),), n=2, m=1)
    rep = transversality_report(node, (0, 0, 1), CONIC_FLAG, Partition())
    assert rep["smooth"] is False and rep["on_cell"] is False
    assert rep["chart"] is None and rep["transversal"] is None
    with pytest.raises(ValueError, match="Jacobian rank"):
        transversal_at(node, (0, 0, 1), CONIC_FLAG, Partition())
    with pytest.raises(ValueError, match="Jacobian rank 0"):
        gauss_point(node, (0, 0, 1))


# -- derivatives in adapted coordinates: the chain rule against symbolic
#    substitution of x = L z


def test_chain_rule_derivatives_match_substitution():
    rng = random.Random(606)
    points = {
        "conic": (CONIC, lambda s, t: (1, t, t * t)),
        "twisted cubic": (TWISTED_CUBIC, lambda s, t: (1, t, t * t, t ** 3)),
        "quadric": (QUADRIC, lambda s, t: (1, s, t, s * t)),
    }
    for inst, point in points.values():
        n = inst.n
        for _ in range(6):
            s, t = (Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2))
            x = point(s, t)
            while True:
                L = [[Fraction(rng.randint(-4, 4)) for _ in range(n + 1)] for _ in range(n + 1)]
                if det(L) != 0:
                    break
            JL = mat_mul(jacobian_at(inst, x), L)
            for f, row, hessian in zip(inst.polys, JL, inst.hessians):
                grad, hess = substituted_derivatives(f, L, x)
                assert row == grad
                H = [[h.eval_point(x) for h in r] for r in hessian]
                assert mat_mul(transpose(L), mat_mul(H, L)) == hess


def test_derivatives_are_built_once(monkeypatch):
    inst = InputInstance(polys=TWISTED_CUBIC.polys, n=3, m=1)
    assert inst == TWISTED_CUBIC and hash(inst) == hash(TWISTED_CUBIC)
    for f, grads, hessian in zip(inst.polys, inst.gradients, inst.hessians):
        assert grads == tuple(f.partial(v) for v in X4)
        assert hessian == tuple(tuple(f.partial(v).partial(w) for w in X4) for v in X4)
    fresh = InputInstance(polys=TWISTED_CUBIC.polys, n=3, m=1)
    # F_1 meets the tangent line at x = (1, 2, 4, 8) in x + (0, 1, 4, 12)
    flag = flag_from_columns((1, 0, 0, 0), (1, 3, 8, 20), (0, 0, 1, 0), (0, 0, 0, 1))
    first = transversality_report(fresh, (1, 2, 4, 8), flag, Partition([1]))
    assert first["on_cell"] and first["transversal"]
    calls = []
    real = MultiPoly.partial
    monkeypatch.setattr(MultiPoly, "partial", lambda f, v: calls.append(v) or real(f, v))
    again = transversality_report(fresh, (1, 2, 4, 8), flag, Partition([1]))
    other = transversality_report(fresh, (1, 3, 9, 27), random_flag(3, 5), Partition())
    assert calls == []
    assert again == first and other["smooth"]
    # equality still compares the fields only, cached derivatives or not
    assert fresh == inst == TWISTED_CUBIC


# -- Q_lambda rank tests


def test_q_lambda_empty_partition_always_true():
    for x in [(1, 1, 1), (1, 2, 4), (1, -3, 9)]:
        assert in_Q_lambda(CONIC, x, random_flag(2, 7), Partition())


def test_q_lambda_tangent_flag():
    assert in_Q_lambda(CONIC, (1, 1, 1), CONIC_FLAG, Partition([1]))


def test_q_lambda_random_flag_misses():
    assert not in_Q_lambda(CONIC, (1, 1, 1), random_flag(2, 12345), Partition([1]))


def test_q_lambda_reads_the_dual_rows_last_first():
    # for [1,1] the i = 1 test takes dual row 0 alone, the form vanishing
    # on F_1 = span(l_0, l_1); x lies in Q_[1,1] exactly when F_1 is the
    # tangent line y0 - 2*y1 + y2 = 0 at x = (1,1,1).  Swapping l_1 and
    # l_2 moves the tangent line from F_1 to span(l_0, l_2).
    tangent_f1 = flag_from_columns((1, 2, 3), (1, 1, 1), (0, 0, 1))
    tangent_elsewhere = flag_from_columns((1, 2, 3), (0, 0, 1), (1, 1, 1))
    assert in_Q_lambda(CONIC, (1, 1, 1), tangent_f1, Partition([1, 1]))
    assert not in_Q_lambda(CONIC, (1, 1, 1), tangent_elsewhere, Partition([1, 1]))
    # F_0 = (1,2,3) is on the tangent line in both, so [1] holds for both
    assert in_Q_lambda(CONIC, (1, 1, 1), tangent_f1, Partition([1]))
    assert in_Q_lambda(CONIC, (1, 1, 1), tangent_elsewhere, Partition([1]))


# -- Schubert charts


def test_echelon_pivot_positions_and_free_slot_count():
    # m=3, n=7, mu=(3,1): pivots at sigma=(1,4,6,7); free slots j < sigma_i - i
    n, m = 7, 3
    mu = Partition([3, 1])
    sigma = jumps(mu, n, m)
    assert sigma == (1, 4, 6, 7)
    free = [(j, i) for i in range(m + 1) for j in range(n - m) if j < sigma[i] - i]
    assert len(free) == (m + 1) * (n - m) - mu.size - ((m + 1) * (n - m) - (m + 1) * (n - m))
    assert len(free) == (m + 1) * (n - m) - mu.size


def test_chart_of_coordinate_plane_is_zero():
    n, m = 4, 1
    flag = Flag.from_basis([[Fraction(int(i == j)) for j in range(n + 1)]
                            for i in range(n + 1)])
    mu = Partition([n - m] * (m + 1))  # sigma = (0, 1, ..., m)
    assert jumps(mu, n, m) == (0, 1)
    A = GrassPoint(((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)))
    chart = schubert_cell_coords(A, flag, mu)
    assert all(v == 0 for row in chart for v in row)
    assert in_cell(A, flag, mu)


def random_grass_point(rng, n, m):
    while True:
        rows = [[Fraction(rng.randint(-6, 6)) for _ in range(n + 1)]
                for _ in range(m + 1)]
        if rank(rows) == m + 1:
            return GrassPoint(tuple(tuple(r) for r in rows))


def admissible_partitions(n, m):
    out = []
    for k in range((n - m) * (m + 1) + 1):
        out.extend(enumerate_partitions(k, max_part=n - m, max_len=m + 1))
    return out


def test_chart_vs_jump_agreement():
    rng = random.Random(2025)
    for trial in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(0, n - 1)
        flag = random_flag(n, rng.randint(0, 10 ** 6))
        A = random_grass_point(rng, n, m)
        mu = rng.choice(admissible_partitions(n, m))
        sigma_direct = dimension_jumps(A, flag)
        assert in_cell(A, flag, mu) == (sigma_direct == jumps(mu, n, m))


def test_cell_decomposition_unique():
    rng = random.Random(77)
    for trial in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(0, n - 1)
        flag = random_flag(n, rng.randint(0, 10 ** 6))
        A = random_grass_point(rng, n, m)
        cells = [mu for mu in admissible_partitions(n, m) if in_cell(A, flag, mu)]
        assert len(cells) == 1
        assert cells[0] == cell_partition_of(A, flag)


def test_cell_implies_schubert_varieties_of_subpartitions():
    rng = random.Random(99)
    for trial in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(0, n - 1)
        flag = random_flag(n, rng.randint(0, 10 ** 6))
        A = random_grass_point(rng, n, m)
        mu = cell_partition_of(A, flag)
        for lam in admissible_partitions(n, m):
            if contains(mu, lam):
                assert in_schubert_variety(A, flag, lam)


# -- transversality: independent first-order-jet oracle for parametrized
#    surfaces; charts are computed on dual numbers, no implicit derivatives


def jet(c0, c1=0):
    return TruncSeries(2, [Fraction(c0), Fraction(c1)])


def jet_chart(rows, flag, mu, n, m):
    """Chart matrix over dual numbers: rows span A(t0 + eps)."""
    from hilbertpoly.linalg import inverse

    sigma = jumps(mu, n, m)
    binv = inverse(flag.basis)
    B = [[sum((r[k] * Fraction(binv[j][k]) for k in range(n + 1)),
              jet(0)) for j in range(n + 1)] for r in rows]
    Bsig = [[row[s] for s in sigma] for row in B]
    if m == 1:
        a, b, c, d = Bsig[0][0], Bsig[0][1], Bsig[1][0], Bsig[1][1]
        detj = a * d - b * c
        inv = [[d * series_inverse(detj), -b * series_inverse(detj)],
               [-c * series_inverse(detj), a * series_inverse(detj)]]
    elif m == 2:
        detj = (Bsig[0][0] * (Bsig[1][1] * Bsig[2][2] - Bsig[1][2] * Bsig[2][1])
                - Bsig[0][1] * (Bsig[1][0] * Bsig[2][2] - Bsig[1][2] * Bsig[2][0])
                + Bsig[0][2] * (Bsig[1][0] * Bsig[2][1] - Bsig[1][1] * Bsig[2][0]))
        dinv = series_inverse(detj)
        cof = [[(Bsig[(i + 1) % 3][(j + 1) % 3] * Bsig[(i + 2) % 3][(j + 2) % 3]
                 - Bsig[(i + 1) % 3][(j + 2) % 3] * Bsig[(i + 2) % 3][(j + 1) % 3])
                for i in range(3)] for j in range(3)]
        inv = [[cof[i][j] * dinv for j in range(3)] for i in range(3)]
    else:
        raise NotImplementedError
    E = [[sum((inv[i][k] * B[k][j] for k in range(m + 1)), jet(0))
          for j in range(n + 1)] for i in range(m + 1)]
    rest = [j for j in range(n + 1) if j not in sigma]
    return [[E[i][j] for i in range(m + 1)] for j in rest]


def conic_jet_transversal(t0, flag):
    """Oracle: on the conic (1,t,t^2), mu=(1), transversality at t0 means
    the constrained chart entry moves to first order along the curve."""
    t = jet(t0, 1)
    rows = [[jet(1), t, t * t], [jet(0), jet(1), 2 * t]]
    chart = jet_chart(rows, flag, Partition([1]), 2, 1)
    # constrained slot is (j=0, i=0); free slot is (0,1)
    return chart[0][0][1] != 0


def test_conic_pinned_transversal():
    assert transversal_at(CONIC, (1, 1, 1), CONIC_FLAG, Partition([1])) is True
    assert conic_jet_transversal(1, CONIC_FLAG) is True


def test_conic_jet_oracle_agrees_on_tangent_flags():
    count_true = 0
    for seed in range(20):
        rng = random.Random(seed)
        t0 = Fraction(rng.randint(-5, 5)) or Fraction(7)
        x = (1, t0, t0 * t0)
        v = (0, 1, 2 * t0)
        s = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        f0 = tuple(a + s * b for a, b in zip(x, v))
        while True:
            cols = [f0] + [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(2)]
            basis = [[Fraction(cols[j][i]) for j in range(3)] for i in range(3)]
            if det(basis) != 0:
                flag = Flag.from_basis(basis)
                A = gauss_point(CONIC, x)
                if in_cell(A, flag, Partition([1])):
                    break
        verdict = transversal_at(CONIC, x, flag, Partition([1]))
        assert verdict == conic_jet_transversal(t0, flag)
        count_true += bool(verdict)
    assert count_true >= 19


def test_line_never_transversal_on_positive_cells():
    # Gauss map of a line is constant: zero differential cannot fill the
    # missing chart direction
    x = (1, 4, 0)
    f0 = (1, 2, 0)  # on the line itself = tangent
    flag = flag_from_columns(f0, (0, 1, 1), (1, 0, 0))
    A = gauss_point(LINE, x)
    assert in_cell(A, flag, Partition([1]))
    assert transversal_at(LINE, x, flag, Partition([1])) is False


def quadric_jet_transversal(s0, t0, flag):
    mu = Partition([1])
    scur = jet(s0, 1)
    tcon = jet(t0, 0)
    rows_s = [[jet(1), scur, tcon, scur * tcon],
              [jet(0), jet(1), jet(0), tcon],
              [jet(0), jet(0), jet(1), scur]]
    scon = jet(s0, 0)
    tcur = jet(t0, 1)
    rows_t = [[jet(1), scon, tcur, scon * tcur],
              [jet(0), jet(1), jet(0), tcur],
              [jet(0), jet(0), jet(1), scon]]
    d1 = jet_chart(rows_s, flag, mu, 3, 2)[0]
    d2 = jet_chart(rows_t, flag, mu, 3, 2)[0]
    # constrained slot is (j=0, i=0)
    return d1[0][1] != 0 or d2[0][1] != 0


def test_quadric_pinned_transversal():
    x = (1, 2, 3, 6)
    assert transversal_at(QUADRIC, x, QUADRIC_FLAG, Partition([1])) is True
    assert quadric_jet_transversal(2, 3, QUADRIC_FLAG) is True


def test_quadric_random_tangent_flags_agree_with_jets():
    rng = random.Random(31337)
    hits = 0
    for _ in range(10):
        s0, t0 = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        x = (1, s0, t0, s0 * t0)
        tangent_rows = [(1, s0, t0, s0 * t0), (0, 1, 0, t0), (0, 0, 1, s0)]
        a, b, c = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        f0 = tuple(a * p + b * q + c * r for p, q, r in zip(*tangent_rows))
        if all(v == 0 for v in f0):
            continue
        for attempt in range(50):
            cols = [f0] + [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(3)]
            basis = [[Fraction(cols[j][i]) for j in range(4)] for i in range(4)]
            if det(basis) == 0:
                continue
            flag = Flag.from_basis(basis)
            A = gauss_point(QUADRIC, x)
            if in_cell(A, flag, Partition([1])):
                break
        else:
            continue
        verdict = transversal_at(QUADRIC, x, flag, Partition([1]))
        assert verdict == quadric_jet_transversal(s0, t0, flag)
        hits += 1
    assert hits >= 5


def cubic_jet_transversal(t0, flag):
    """Oracle: on the twisted cubic (1,t,t^2,t^3), mu=(1), transversality
    at t0 means the constrained chart slot (j=1, i=0) moves to first
    order along the curve."""
    t = jet(t0, 1)
    rows = [[jet(1), t, t * t, t * t * t], [jet(0), jet(1), 2 * t, 3 * t * t]]
    return jet_chart(rows, flag, Partition([1]), 3, 1)[1][0][1] != 0


def test_twisted_cubic_flags_on_the_codimension_one_cell():
    # n - m = 2 and three generators: the chart block comes from two of
    # the three Jacobian rows.  F_1 meets the tangent line at x in the
    # point x + s*v, which is x itself when s = 0
    mu = Partition([1])
    rng = random.Random(1729)
    verdicts = []
    for trial in range(16):
        t0 = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        x = (1, t0, t0 ** 2, t0 ** 3)
        v = (0, 1, 2 * t0, 3 * t0 ** 2)
        s = 0 if trial % 4 == 0 else Fraction(rng.randint(1, 5))
        on_tangent = tuple(a + s * b for a, b in zip(x, v))
        while True:
            cols = [tuple(rng.randint(-5, 5) for _ in range(4)), on_tangent,
                    *(tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(2))]
            basis = [[Fraction(cols[j][i]) for j in range(4)] for i in range(4)]
            if det(basis) != 0:
                flag = Flag.from_basis(basis)
                if cell_partition_of(gauss_point(TWISTED_CUBIC, x), flag) == mu:
                    break
        rep = transversality_report(TWISTED_CUBIC, x, flag, mu)
        assert rep["smooth"] and rep["on_cell"] and rep["needed"] == 4
        assert rep["transversal"] == cubic_jet_transversal(t0, flag)
        verdicts.append(rep["transversal"])
    assert True in verdicts and False in verdicts


# the nodal cubic: its second partials have degree 1, so its Hessian
# changes from point to point; the node is (0, 0, 1), at t = 1 and -1
NODAL_CUBIC = InputInstance(polys=(parse_poly("x1^2*x2 - x0^3 - x0^2*x2", X3),), n=2, m=1)


def nodal_cubic_jet_transversal(t0, flag):
    """Oracle: on the nodal cubic (t^2 - 1, t^3 - t, 1), mu=(1),
    transversality at t0 means the constrained chart slot (j=0, i=0)
    moves to first order along the curve."""
    t = jet(t0, 1)
    rows = [[t * t - 1, t * t * t - t, jet(1)], [2 * t, 3 * t * t - 1, jet(0)]]
    return jet_chart(rows, flag, Partition([1]), 2, 1)[0][0][1] != 0


def test_nodal_cubic_with_non_constant_hessians_agrees_with_jets():
    # F_0 lies on the tangent line at a smooth point x, and is x itself
    # in every fourth trial
    mu = Partition([1])
    assert any(any(e) for row in NODAL_CUBIC.hessians[0] for h in row for e in h.terms)
    rng = random.Random(2718)
    verdicts = []
    for trial in range(16):
        t0 = Fraction(1)
        while t0 in (1, -1):
            t0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        x = (t0 ** 2 - 1, t0 ** 3 - t0, 1)
        v = (2 * t0, 3 * t0 ** 2 - 1, 0)
        s = 0 if trial % 4 == 0 else Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        f0 = tuple(a + s * b for a, b in zip(x, v))
        while True:
            cols = [f0] + [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(2)]
            basis = [[Fraction(cols[j][i]) for j in range(3)] for i in range(3)]
            if det(basis) != 0:
                flag = Flag.from_basis(basis)
                if in_cell(gauss_point(NODAL_CUBIC, x), flag, mu):
                    break
        rep = transversality_report(NODAL_CUBIC, x, flag, mu)
        assert rep["smooth"] and rep["on_cell"] and rep["needed"] == 2
        assert rep["transversal"] == nodal_cubic_jet_transversal(t0, flag)
        verdicts.append(rep["transversal"])
    assert True in verdicts and False in verdicts


def test_conic_report_evaluates_only_the_non_constant_partials(monkeypatch):
    # one zero test and three gradient entries; the nine Hessian entries
    # of a quadric are constants, read once per instance
    inst = InputInstance(polys=CONIC.polys, n=2, m=1)
    calls = []
    real = MultiPoly.eval_point
    monkeypatch.setattr(MultiPoly, "eval_point", lambda f, x: calls.append(f) or real(f, x))
    rep = transversality_report(inst, (1, 1, 1), CONIC_FLAG, Partition([1]))
    assert rep["span_dim"] == 2 and len(calls) == 4
    assert inst.hessian_entries == (((0, 0, 1), (0, -2, 0), (1, 0, 0)),)


def test_transversality_report_fields():
    rep = transversality_report(CONIC, (1, 1, 1), CONIC_FLAG, Partition([1]))
    assert rep["smooth"] and rep["on_cell"] and rep["transversal"]
    assert rep["needed"] == 2 and rep["span_dim"] == 2
    assert len(rep["chart"]) == 1 and len(rep["chart"][0]) == 2


def test_transversal_at_requires_cell_membership():
    with pytest.raises(ValueError):
        transversal_at(CONIC, (1, 1, 1), random_flag(2, 4242), Partition([1]))


def test_whole_space_trivially_transversal():
    inst = InputInstance(polys=(), n=2, m=2)
    flag = random_flag(2, 1)
    assert transversal_at(inst, (1, 1, 1), flag, Partition()) is True


def test_redundant_generator_gives_same_report():
    # 2*(x0*x2 - x1^2) listed first makes the second Jacobian row
    # dependent; the square of the conic listed first has a zero Jacobian
    # row on the conic, so the chart block must come from the second row
    conic = parse_poly("x0*x2 - x1^2", X3)
    cases = [((1, 1, 1), CONIC_FLAG), ((1, 1, 1), random_flag(2, 4242))]
    for seed in range(10):
        t0 = Fraction(seed - 4)
        x = (1, t0, t0 * t0)
        f0 = (1, t0 + 1, t0 * t0 + 2 * t0)  # x plus the tangent direction
        cases.append((x, flag_from_columns(f0, (0, 1, seed), (0, 0, 1))))
    for first in (conic * 2, conic * conic):
        listed = InputInstance(polys=(first, conic), n=2, m=1)
        on_cell = 0
        for x, flag in cases:
            rep = transversality_report(listed, x, flag, Partition([1]))
            assert rep == transversality_report(CONIC, x, flag, Partition([1]))
            on_cell += rep["on_cell"]
        assert on_cell >= 10
    # and a non-transversal verdict: the line x2 = 0, listed as 2*x2 and x2
    line = parse_poly("x2", X3)
    doubled_line = InputInstance(polys=(line * 2, line), n=2, m=1)
    flag = flag_from_columns((1, 2, 0), (0, 1, 1), (1, 0, 0))
    rep = transversality_report(doubled_line, (1, 4, 0), flag, Partition([1]))
    assert rep == transversality_report(LINE, (1, 4, 0), flag, Partition([1]))
    assert rep["on_cell"] and rep["transversal"] is False


def test_inadmissible_partition_raises_at_a_singular_point():
    # mu is checked before the smoothness test, and after the point is
    # found to be a zero: at the node as at a smooth point
    flag = Flag.from_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for x in ((0, 0, 1), (-1, 0, 1)):
        with pytest.raises(ValueError, match="not admissible"):
            transversality_report(NODAL_CUBIC, x, flag, Partition([7]))
    with pytest.raises(ValueError, match="not a zero"):
        transversality_report(NODAL_CUBIC, (1, 1, 1), flag, Partition([7]))
