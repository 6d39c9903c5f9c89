"""The package's union-find helper."""
from skeinrep.unionfind import UnionFind


def test_union_reports_merges():
    uf = UnionFind()
    assert uf.union(1, 2)
    assert uf.union(2, 3)
    assert not uf.union(3, 1)
    assert uf.find(1) == uf.find(3)
    assert uf.find(4) == 4  # first touch makes a singleton


def test_groups_in_first_seen_order():
    uf = UnionFind(range(5))
    uf.union(3, 1)
    uf.union(4, 0)
    assert uf.groups() == [[0, 4], [1, 3], [2]]
