"""Passes that skip re-inference must agree with it on randomized inputs."""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st
from recheck import assert_bouquet_rechecks, assert_rechecks, det_bouquets, perms, regular_circuits

from smlc.circuit import Bouquet, Circuit, ConstLeaf, regular
from smlc.passes import compose, merge_summands, project, reverse
from smlc.pipeline import reduce_to_single

checks = settings(derandomize=True, deadline=None, max_examples=30)

# determinant bouquets over 2 to 5 rows
small_det_bouquets = st.integers(2, 5).flatmap(det_bouquets)

ZEROS = Bouquet(3, (regular(Circuit(3, (ConstLeaf(0),), 0), (2, 3, 1)),))


@checks
@given(
    st.one_of(
        st.integers(1, 6).flatmap(regular_circuits),
        small_det_bouquets.flatmap(lambda b: st.sampled_from(b.summands)),
    )
)
def test_reverse_output_rechecks(rc):
    assert_rechecks(reverse(rc))


@checks
@given(small_det_bouquets, st.data())
def test_compose_output_rechecks(b, data):
    assert_bouquet_rechecks(compose(b, data.draw(perms(b.n))))


@checks
@given(st.data())
def test_merge_output_rechecks(data):
    n = data.draw(st.integers(1, 5))
    pool = data.draw(st.lists(perms(n), min_size=2, max_size=2))
    count = data.draw(st.integers(1, 5))
    summands = [data.draw(regular_circuits(n, data.draw(st.sampled_from(pool)))) for _ in range(count)]
    summands.insert(data.draw(st.integers(0, count)), regular(Circuit(n, (ConstLeaf(0),), 0), pool[0]))
    assert_bouquet_rechecks(merge_summands(Bouquet(n, tuple(summands))))


@checks
@given(small_det_bouquets)
def test_project_output_rechecks(b):
    for size in range(1, b.n + 1):
        for keep in itertools.combinations(range(1, b.n + 1), size):
            assert_bouquet_rechecks(project(b, keep))


@checks
@given(small_det_bouquets)
@example(ZEROS)
def test_reduce_output_rechecks(b):
    single, _ = reduce_to_single(b, verify="off")
    assert_rechecks(single)
    if b is ZEROS:
        assert single.degree == 0
