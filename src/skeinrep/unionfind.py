"""Disjoint sets over hashable items: the one union-find of the package.

Items join on first touch: ``find`` of an unseen item makes it a singleton.
"""
from __future__ import annotations


class UnionFind:
    __slots__ = ("_parent",)

    def __init__(self):
        self._parent = {}

    def find(self, x):
        parent = self._parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y) -> bool:
        """Merge the classes of x and y; False when they were one class."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self._parent[rx] = ry
        return True
