import pytest

from curvecount import GrassmannianRing, Partition, partitions_in_box, partitions_of_weight
from curvecount.partitions import horizontal_strips, vertical_strips


def test_trailing_zeros_stripped():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition((0, 0)).parts == ()
    assert Partition().parts == ()


def test_empty_partition_is_unique_weight_zero():
    assert Partition(()) == Partition((0,))
    assert Partition(()).weight == 0


def test_weight():
    assert Partition((4, 2, 1)).weight == 7


def test_rejects_increasing_parts():
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_rejects_negative_parts():
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_rejects_non_integral_parts():
    for parts in ([2.7, 1], [2.0], ["2", 1]):
        with pytest.raises(TypeError):
            Partition(parts)
    assert Partition([2, True]).parts == (2, 1)


def test_lexicographic_order():
    assert Partition((1,)) < Partition((1, 1)) < Partition((2,)) < Partition((2, 1))
    assert sorted([Partition((2,)), Partition(()), Partition((1, 1))]) == [
        Partition(()),
        Partition((1, 1)),
        Partition((2,)),
    ]


def test_hashable_and_tuple_equality():
    d = {Partition((2, 1)): "x"}
    assert d[Partition((2, 1, 0))] == "x"
    assert Partition((2, 1)) == (2, 1)


def test_fits_box():
    assert Partition((2, 2)).fits(2, 2)
    assert not Partition((3,)).fits(2, 2)
    assert not Partition((1, 1, 1)).fits(2, 2)
    assert Partition(()).fits(1, 0)


def test_partitions_in_box_counts():
    # Binomial(rows + cols, rows) diagrams fit an rows x cols box.
    assert len(partitions_in_box(2, 2)) == 6
    assert len(partitions_in_box(3, 3)) == 20
    assert len(partitions_in_box(2, 3)) == 10
    assert partitions_in_box(1, 0) == [Partition(())]


def test_partitions_of_weight():
    assert partitions_of_weight(3, 3, 3) == [
        Partition((1, 1, 1)),
        Partition((2, 1)),
        Partition((3,)),
    ]
    # Every box up to 4 x 4 and every weight, against filtering the whole box.
    for rows in range(5):
        for cols in range(5):
            box = partitions_in_box(rows, cols)
            for weight in range(-1, rows * cols + 2):
                assert partitions_of_weight(weight, rows, cols) == [p for p in box if p.weight == weight]
    # The box of Gr(20, 80) holds binom(80, 20) partitions; weight 2 has two.
    assert GrassmannianRing(20, 80).basis(2) == [Partition([1, 1]), Partition([2])]


def test_horizontal_strips_basic():
    strips = set(horizontal_strips((1,), 1, 2, 2))
    assert strips == {(2,), (1, 1)}


def test_horizontal_strips_no_two_boxes_in_a_column():
    # Adding 2 boxes to (1): growing to (1,1,1) would stack two boxes in
    # the first column and must not appear.
    strips = set(horizontal_strips((1,), 2, 3, 3))
    assert strips == {(3,), (2, 1)}


def test_horizontal_strips_box_truncation():
    # (2,1) + 1 box inside the 2x2 box: only (2,2); (3,1) leaves the box.
    strips = set(horizontal_strips((2, 1), 1, 2, 2))
    assert strips == {(2, 2)}


def test_horizontal_strips_match_brute_force():
    # Every in-box nu of the right weight interlacing with base
    # (nu_1 >= base_1 >= nu_2 >= ...), in lex order without trailing zeros.
    def pad(parts, rows):
        return parts + (0,) * (rows - len(parts))

    for rows, cols in [(1, 3), (2, 2), (3, 3), (4, 2), (2, 0)]:
        box = [p.parts for p in partitions_in_box(rows, cols)]
        for base in box:
            b = pad(base, rows)
            for size in range(-1, cols + 2):
                expected = [
                    nu for nu in box
                    if sum(nu) == sum(base) + size
                    and all(n >= b[i] and (i == 0 or n <= b[i - 1]) for i, n in enumerate(pad(nu, rows)))
                ]
                assert list(horizontal_strips(base, size, rows, cols)) == expected


def test_horizontal_strips_size_zero():
    assert list(horizontal_strips((2, 1), 0, 2, 2)) == [(2, 1)]


def test_vertical_strips_match_brute_force():
    # Every in-box nu of the right weight that adds at most one box to each
    # row of base, in lex order without trailing zeros.
    def pad(parts, rows):
        return parts + (0,) * (rows - len(parts))

    for rows, cols in [(1, 3), (2, 2), (3, 3), (4, 2), (2, 0), (0, 2)]:
        box = [p.parts for p in partitions_in_box(rows, cols)]
        for base in box:
            b = pad(base, rows)
            for size in range(-1, rows + 2):
                expected = [
                    nu for nu in box
                    if sum(nu) == sum(base) + size and all(0 <= n - b[i] <= 1 for i, n in enumerate(pad(nu, rows)))
                ]
                assert list(vertical_strips(base, size, rows, cols)) == expected


def test_vertical_strips_no_two_boxes_in_a_row():
    # Adding 2 boxes to (1): growing to (3,) would put two boxes in one row.
    assert set(vertical_strips((1,), 2, 3, 3)) == {(2, 1), (1, 1, 1)}
    assert list(vertical_strips((2, 1), 0, 2, 2)) == [(2, 1)]
