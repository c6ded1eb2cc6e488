"""Tests for parenthesization trees, enumeration, and linearization."""

import pytest

from repro.compiler.parenthesization import (
    ParenTree,
    catalan,
    enumerate_trees,
    fanning_out_tree,
    iter_trees,
    join,
    leaf,
    left_to_right_tree,
    linearize,
    right_to_left_tree,
    rotations,
)


class TestCatalan:
    def test_values(self):
        assert [catalan(k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_enumeration_count(self, n):
        assert len(enumerate_trees(n)) == catalan(n - 1)

    def test_enumeration_distinct(self):
        trees = enumerate_trees(6)
        assert len({str(t) for t in trees}) == len(trees)


class TestTreeStructure:
    def test_leaf(self):
        t = leaf(2)
        assert t.is_leaf
        with pytest.raises(ValueError):
            t.triplet

    def test_join_validation(self):
        with pytest.raises(ValueError):
            join(leaf(0), leaf(2))  # not adjacent

    def test_triplet(self):
        t = join(join(leaf(0), leaf(1)), leaf(2))
        assert t.triplet == (0, 2, 3)
        assert t.left.triplet == (0, 1, 2)

    def test_render(self):
        t = left_to_right_tree(3)
        assert str(t) == "((M1 M2) M3)"
        assert t.render(["A", "B", "C"]) == "((A B) C)"

    def test_right_to_left(self):
        assert str(right_to_left_tree(3)) == "(M1 (M2 M3))"


class TestFanningOut:
    def test_h_zero_is_left_to_right(self):
        assert str(fanning_out_tree(5, 0)) == str(left_to_right_tree(5))

    def test_h_n_is_right_to_left(self):
        assert str(fanning_out_tree(5, 5)) == str(right_to_left_tree(5))

    def test_middle_h(self):
        # E_2 for n = 5: prefix M1 M2 right-to-left, suffix M3 M4 M5
        # left-to-right, then combined.
        assert str(fanning_out_tree(5, 2)) == "((M1 M2) ((M3 M4) M5))"

    def test_h_out_of_range(self):
        with pytest.raises(ValueError):
            fanning_out_tree(4, 5)

    def test_duplicates_for_small_n(self):
        # For n <= 3 there are only n - 1 distinct fanning-out trees.
        keys3 = {str(fanning_out_tree(3, h)) for h in range(4)}
        assert len(keys3) == 2
        keys2 = {str(fanning_out_tree(2, h)) for h in range(3)}
        assert len(keys2) == 1

    def test_all_distinct_for_larger_n(self):
        for n in (4, 5, 6, 7):
            keys = {str(fanning_out_tree(n, h)) for h in range(n + 1)}
            assert len(keys) == n + 1


class TestLinearization:
    def test_paper_example(self):
        # ((M1 M2) M3)(M4 M5): the leftmost-first order issues (0,1,2),
        # (0,2,3), (3,4,5), (0,3,5) — exactly the paper's Section III-B.
        tree = join(
            join(join(leaf(0), leaf(1)), leaf(2)),
            join(leaf(3), leaf(4)),
        )
        order = [node.triplet for node in linearize(tree)]
        assert order == [(0, 1, 2), (0, 2, 3), (3, 4, 5), (0, 3, 5)]

    def test_left_to_right_order(self):
        order = [node.triplet for node in linearize(left_to_right_tree(4))]
        assert order == [(0, 1, 2), (0, 2, 3), (0, 3, 4)]

    def test_right_to_left_order(self):
        order = [node.triplet for node in linearize(right_to_left_tree(4))]
        assert order == [(2, 3, 4), (1, 2, 4), (0, 1, 4)]

    def test_every_tree_linearizes_completely(self):
        for tree in enumerate_trees(6):
            order = linearize(tree)
            assert len(order) == 5
            # The final association always spans the full chain.
            assert order[-1].triplet == (0, order[-1].left.hi + 1, 6)

    def test_consumed_symbol_never_reappears(self):
        # Section III-B: after association i, the middle symbol b_i does not
        # appear in any later triplet.
        for tree in enumerate_trees(7):
            order = [node.triplet for node in linearize(tree)]
            for i, (_, b, _) in enumerate(order):
                for later in order[i + 1:]:
                    assert b not in later


    @pytest.mark.parametrize("n", range(1, 10))
    def test_post_order_equals_leftmost_available_first(self, n):
        # linearize is plain post-order; this is the ready-set scan it
        # replaced, which spells the Section IV rule out literally.
        for tree in enumerate_trees(n):
            assert linearize(tree) == _leftmost_available_first(tree)


def _leftmost_available_first(tree):
    nodes = list(tree.internal_nodes())
    done: set = set()
    order = []

    def ready(node):
        left_ok = node.left.is_leaf or (node.left.lo, node.left.hi) in done
        right_ok = node.right.is_leaf or (node.right.lo, node.right.hi) in done
        return left_ok and right_ok

    remaining = set(range(len(nodes)))
    while remaining:
        candidates = [i for i in remaining if ready(nodes[i])]
        chosen = min(candidates, key=lambda i: nodes[i].lo)
        order.append(nodes[chosen])
        done.add((nodes[chosen].lo, nodes[chosen].hi))
        remaining.discard(chosen)
    return order


class TestLazyEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_eager_enumeration(self, n):
        assert [str(t) for t in iter_trees(n)] == [
            str(t) for t in enumerate_trees(n)
        ]

    def test_prefix_of_long_chain_is_cheap(self):
        # Catalan(19) ~ 1.77e9 trees: materializing is impossible, but the
        # lazy iterator hands out a bounded prefix instantly.
        import itertools

        prefix = list(itertools.islice(iter_trees(20), 25))
        assert len(prefix) == 25
        assert len({str(t) for t in prefix}) == 25
        for tree in prefix:
            assert (tree.lo, tree.hi) == (0, 19)

    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError):
            next(iter_trees(0))


class TestRotations:
    def test_leaf_has_no_neighbors(self):
        assert list(rotations(leaf(0))) == []

    def test_two_leaves_have_no_neighbors(self):
        assert list(rotations(join(leaf(0), leaf(1)))) == []

    def test_three_leaves_rotate_into_each_other(self):
        left = join(join(leaf(0), leaf(1)), leaf(2))
        right = join(leaf(0), join(leaf(1), leaf(2)))
        assert [str(t) for t in rotations(left)] == [str(right)]
        assert [str(t) for t in rotations(right)] == [str(left)]

    @pytest.mark.parametrize("n", (4, 5, 6, 7))
    def test_neighbors_are_valid_distinct_trees(self, n):
        for tree in enumerate_trees(n):
            neighbors = list(rotations(tree))
            assert 1 <= len(neighbors) <= 2 * (n - 2)
            for neighbor in neighbors:
                assert (neighbor.lo, neighbor.hi) == (0, n - 1)
                assert str(neighbor) != str(tree)
                # A rotation is an involution: the original is reachable back.
                assert str(tree) in {str(t) for t in rotations(neighbor)}

    def test_rotation_graph_is_connected(self):
        # Every parenthesization reaches every other through rotations
        # (the associahedron is connected) — the property that lets the
        # DP-seeded neighborhood cover trees between seeds.
        n = 6
        all_keys = {str(t) for t in enumerate_trees(n)}
        frontier = [left_to_right_tree(n)]
        seen = {str(frontier[0])}
        while frontier:
            tree = frontier.pop()
            for neighbor in rotations(tree):
                key = str(neighbor)
                if key not in seen:
                    seen.add(key)
                    frontier.append(neighbor)
        assert seen == all_keys
