"""Matroids with counted independence queries and swap rounding."""

from __future__ import annotations

import random
from dataclasses import dataclass

from dynsub.oracle import DomainError


class _BaseMatroid:
    """Counted independence queries; a subclass defines _independent(S)."""

    def __init__(self, ground):
        self.ground = frozenset(int(e) for e in ground)
        self._count = 0

    @property
    def query_count(self) -> int:
        return self._count

    def is_independent(self, S) -> bool:
        S = frozenset(S)
        if not S <= self.ground:
            raise DomainError(f"unknown elements: {sorted(S - self.ground)}")
        self._count += 1
        return self._independent(S)


class UniformMatroid(_BaseMatroid):
    """Independent iff |S| <= k."""

    def __init__(self, k: int, ground):
        if k < 0:
            raise ValueError("k must be >= 0")
        super().__init__(ground)
        self.k = k

    def _independent(self, S) -> bool:
        return len(S) <= self.k


class PartitionMatroid(_BaseMatroid):
    """Independent iff every block's intersection is within its cap."""

    def __init__(self, blocks, caps):
        # blocks: element -> block label; caps: block label -> integer cap
        super().__init__(blocks.keys())
        self.blocks = {int(e): b for e, b in blocks.items()}
        self.caps = {b: int(c) for b, c in caps.items()}
        if any(c < 0 for c in self.caps.values()):
            raise ValueError("negative cap")
        missing = set(self.blocks.values()) - set(self.caps)
        if missing:
            raise ValueError(f"blocks without caps: {sorted(missing)}")

    def _independent(self, S) -> bool:
        counts: dict = {}
        for e in S:
            b = self.blocks[e]
            counts[b] = counts.get(b, 0) + 1
            if counts[b] > self.caps[b]:
                return False
        return True

    @classmethod
    def load(cls, path) -> "PartitionMatroid":
        caps: dict = {}
        blocks: dict = {}
        with open(path) as fh:
            if fh.readline().strip() != "partition":
                raise ValueError("bad partition header")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    tag, key, word, val = line.split()
                    # a second line for a block or an element is refused
                    if (tag, word) == ("b", "cap") and key not in caps:
                        caps[key] = int(val)
                    elif ((tag, word) == ("e", "block")
                          and int(key) not in blocks):
                        blocks[int(key)] = val
                    else:
                        raise ValueError
                except ValueError:
                    raise ValueError(f"bad partition line {lineno}: "
                                     f"{line.strip()!r}") from None
        return cls(blocks, caps)


@dataclass
class ConvexCombo:
    parts: list  # list of (weight, frozenset)

    def __post_init__(self):
        self.parts = [(float(l), frozenset(S)) for l, S in self.parts]
        if any(l <= 0 for l, _ in self.parts):
            raise ValueError("part weights must be positive")
        total = sum(l for l, _ in self.parts)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, not 1")

    def point(self) -> dict:
        x: dict = {}
        for l, S in self.parts:
            for e in S:
                x[e] = x.get(e, 0.0) + l
        for e, p in x.items():
            if p > 1.0 + 1e-9:
                raise ValueError(f"coordinate {e} = {p} exceeds 1")
            x[e] = min(p, 1.0)
        return x


def _swap_pair(M, S1, l1, S2, l2, rng):
    """Merge two independent sets into one, preserving coordinatewise
    membership marginals at every probabilistic step."""
    S1, S2 = set(S1), set(S2)
    while S1 != S2:
        if len(S1) == len(S2):
            e1 = min(S1 - S2)
            e2 = None
            for cand in sorted(S2 - S1):
                if (M.is_independent((S2 - {cand}) | {e1})
                        and M.is_independent((S1 - {e1}) | {cand})):
                    e2 = cand
                    break
            if e2 is None:
                # equal-size independent sets always admit a symmetric
                # exchange (both are bases of the rank-|S1| truncation)
                raise RuntimeError("no symmetric exchange found; matroid broken?")
            if rng.random() < l1 / (l1 + l2):
                S2.remove(e2)
                S2.add(e1)
            else:
                S1.remove(e1)
                S1.add(e2)
        else:
            if len(S1) < len(S2):
                small, l_small, big, l_big = S1, l1, S2, l2
            else:
                small, l_small, big, l_big = S2, l2, S1, l1
            e = None
            for cand in sorted(big - small):
                if M.is_independent(small | {cand}):
                    e = cand
                    break
            if e is None:
                raise RuntimeError("augmentation failed; matroid broken?")
            if rng.random() < l_big / (l1 + l2):
                small.add(e)
            else:
                big.remove(e)
    return frozenset(S1)


def swap_round(M, combo: ConvexCombo, seed: int) -> frozenset:
    """Round a convex combination of independent sets to one independent
    set by pairwise merges, smallest weights first.  The merge never
    evaluates the objective."""
    for _, S in combo.parts:
        if not M.is_independent(S):
            raise ValueError(f"part {sorted(S)} is not independent")
    combo.point()  # validates coordinates
    rng = random.Random(seed)
    # (weight, insertion index, set); index breaks weight ties deterministically
    live = [(l, i, S) for i, (l, S) in enumerate(combo.parts)]
    next_idx = len(live)
    while len(live) > 1:
        live.sort(key=lambda t: (t[0], t[1]))
        l1, _, S1 = live.pop(0)
        l2, _, S2 = live.pop(0)
        merged = _swap_pair(M, S1, l1, S2, l2, rng)
        live.append((l1 + l2, next_idx, merged))
        next_idx += 1
    return live[0][2]
