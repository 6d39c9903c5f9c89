"""Disjoint sets over hashable items: the one union-find of the package.

Items join on first touch (``find`` of an unseen item makes it a singleton),
so callers that need isolated items in ``groups`` pass them to the
constructor.
"""
from __future__ import annotations


class UnionFind:
    __slots__ = ("_parent",)

    def __init__(self, items=()):
        self._parent = {x: x for x in items}

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

    def groups(self):
        """The classes as lists, ordered by their first-seen member, each
        list in first-seen order."""
        out = {}
        for x in self._parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())
