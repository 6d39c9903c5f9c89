"""The package's union-find helper, and the tests' grouping of its classes."""
from helpers import groups
from skeinrep.unionfind import UnionFind


def test_union_reports_merges():
    uf = UnionFind()
    assert uf.union(1, 2)
    assert uf.union(2, 3)
    assert not uf.union(3, 1)
    assert uf.find(1) == uf.find(3)
    assert uf.find(4) == 4  # first touch makes a singleton


def test_groups_in_first_seen_order():
    uf = UnionFind()
    uf.union(3, 1)
    uf.union(4, 0)
    assert groups(uf, [0, 1, 2, 3, 4, 1]) == [[0, 4], [1, 3], [2]]
