"""Union-find with path compression (the e-graph's equivalence store)."""

from __future__ import annotations


class UnionFind:
    """Disjoint sets over dense integer ids."""

    def __init__(self):
        self._parent: list[int] = []

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self) -> int:
        """Create a fresh singleton set; returns its id."""
        new_id = len(self._parent)
        self._parent.append(new_id)
        return new_id

    def find(self, x: int) -> int:
        """Canonical representative of ``x``'s set (with compression)."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; ``a``'s root wins.

        The e-graph decides merge direction (it keeps the class with
        more parents as the survivor), so this union is directed: after
        ``union(a, b)``, ``find(b) == find(a)``.
        """
        ra, rb = self.find(a), self.find(b)
        self._parent[rb] = ra
        return ra

    def in_same_set(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` share a representative."""
        return self.find(a) == self.find(b)
