import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from hilbertpoly.partitions import (
    Partition,
    count_nested_pairs,
    enumerate_partitions,
    is_admissible,
    jumps,
    parse_partition,
)

from oracles import conjugate, contains, partition_from_jumps


def partition_count(k):
    """Classic pentagonal-number recurrence, used as a counting oracle."""
    p = [1] + [0] * k
    for n in range(1, k + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p[k]


def test_normalization_drops_trailing_zeros():
    assert Partition([3, 1, 0, 0]).parts == (3, 1)
    assert Partition([]).parts == ()


def test_rejects_increasing():
    with pytest.raises(ValueError):
        Partition([1, 2])


def test_conjugate_examples():
    assert conjugate(Partition([3, 1])) == Partition([2, 1, 1])
    assert conjugate(Partition([1] * 5)) == Partition([5])
    assert conjugate(Partition([5])) == Partition([1] * 5)
    assert conjugate(Partition()) == Partition()


def test_contains_examples():
    assert contains(Partition([2, 1]), Partition([1, 1]))
    assert not contains(Partition([2]), Partition([1, 1]))
    assert contains(Partition([2]), Partition())
    assert contains(Partition(), Partition())


def test_admissibility_examples():
    assert is_admissible(Partition([1]), 2, 1)
    assert not is_admissible(Partition([2]), 3, 2)
    assert is_admissible(Partition(), 5, 3)


def test_jumps_examples():
    assert jumps(Partition([3, 1]), 7, 3) == (1, 4, 6, 7)
    assert jumps(Partition(), 5, 2) == (3, 4, 5)
    assert jumps(Partition([1]), 2, 1) == (0, 2)


def test_jumps_rejects_inadmissible():
    with pytest.raises(ValueError):
        jumps(Partition([4]), 3, 1)


def test_enumeration_examples():
    assert enumerate_partitions(2, 2, 2) == [Partition([2]), Partition([1, 1])]
    assert enumerate_partitions(2, containing=Partition([1, 1])) == [Partition([1, 1])]
    assert enumerate_partitions(3, max_part=1) == [Partition([1, 1, 1])]


def test_enumeration_containing_matches_filtered_enumeration():
    # part i starts at mu_i: the same list, in the same order, as
    # enumerating everything and dropping what does not contain mu
    pool = [mu for k in range(12) for mu in enumerate_partitions(k)]
    for size in range(11):
        for max_part, max_len in ((None, None), (2, None), (None, 3), (3, 4)):
            everything = enumerate_partitions(size, max_part=max_part, max_len=max_len)
            for mu in pool:
                assert enumerate_partitions(size, max_part=max_part, max_len=max_len,
                                            containing=mu) == \
                    [lam for lam in everything if contains(lam, mu)], (size, mu)


def test_count_nested_pairs_matches_brute_count():
    for size in range(10):
        for width in range(size + 2):
            brute = sum(1 for lam in enumerate_partitions(size)
                        for j in range(size + 1)
                        for mu in enumerate_partitions(j, max_part=width)
                        if contains(lam, mu))
            assert count_nested_pairs(size, width) == brute, (size, width)
    assert count_nested_pairs(-1, 3) == count_nested_pairs(3, -1) == 0


def test_enumeration_matches_counting_oracle():
    for k in range(13):
        assert len(enumerate_partitions(k)) == partition_count(k)


def test_conjugate_is_involution_exhaustive():
    for k in range(13):
        for lam in enumerate_partitions(k):
            assert conjugate(conjugate(lam)) == lam


def test_contains_is_partial_order():
    pool = [lam for k in range(9) for lam in enumerate_partitions(k)]
    for a in pool:
        assert contains(a, a)
    for a in pool:
        for b in pool:
            if contains(a, b) and contains(b, a):
                assert a == b
    for a in pool:
        below_a = [b for b in pool if contains(a, b)]
        for b in below_a:
            for c in pool:
                if contains(b, c):
                    assert contains(a, c)


def test_jumps_roundtrip_exhaustive():
    for n in range(1, 9):
        for m in range(n + 1):
            admissible = [lam for k in range((n - m) * (m + 1) + 1)
                          for lam in enumerate_partitions(k, max_part=n - m,
                                                          max_len=m + 1)]
            for lam in admissible:
                sigma = jumps(lam, n, m)
                assert partition_from_jumps(sigma, n, m) == lam


@given(st.integers(1, 12), st.data())
@settings(max_examples=60)
def test_jumps_roundtrip_random_larger(n, data):
    m = data.draw(st.integers(0, n))
    admissible = [lam for k in range((n - m) * (m + 1) + 1)
                  for lam in enumerate_partitions(k, max_part=n - m, max_len=m + 1)]
    lam = data.draw(st.sampled_from(admissible))
    assert partition_from_jumps(jumps(lam, n, m), n, m) == lam


_PARTITION_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from(list("[],0123456789 -+\t\u0663_x")), max_size=20),
    st.text(max_size=12),
    st.lists(st.integers(-3, 50), max_size=5).map(lambda ps: "[%s]" % ",".join(map(str, ps))),
)


@given(_PARTITION_TEXT)
@settings(max_examples=300)
def test_parse_partition_fuzz(text):
    # either a partition whose printed form parses back to it, or a
    # ValueError, which the CLI reports as a parse error
    try:
        lam = parse_partition(text)
    except ValueError:
        return
    assert isinstance(lam, Partition)
    assert parse_partition(str(lam)) == lam


def test_text_syntax():
    assert parse_partition("[3,1]") == Partition([3, 1])
    assert parse_partition("[]") == Partition()
    assert str(Partition([3, 1])) == "[3,1]"
    with pytest.raises(ValueError):
        parse_partition("[3,]")
