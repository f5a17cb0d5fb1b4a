"""Ordered insert/delete event streams over integer element ids."""

from __future__ import annotations

from dataclasses import dataclass

INSERT = "I"
DELETE = "D"


@dataclass(frozen=True)
class StreamOp:
    kind: str  # INSERT or DELETE
    element: int

    def __post_init__(self):
        if self.kind not in (INSERT, DELETE):
            raise ValueError(f"bad op kind {self.kind!r}")
        if self.element < 0:
            raise ValueError("element ids are non-negative")


class Stream:
    """A validated sequence of stream operations.

    Deletions must target a currently live element; ids are never reused
    after deletion within one stream.  A refusal names the 0-based op
    index, or the file line of the op where `lines` gives one per op.
    """

    def __init__(self, ops, lines=None):
        ops = list(ops)
        live: set[int] = set()
        dead: set[int] = set()
        for i, op in enumerate(ops):
            if op.kind == INSERT:
                if op.element in live:
                    refusal = f"duplicate insert of {op.element}"
                elif op.element in dead:
                    refusal = f"id {op.element} reused after delete"
                else:
                    live.add(op.element)
                    continue
            elif op.element in live:
                live.remove(op.element)
                dead.add(op.element)
                continue
            else:
                refusal = f"delete of non-live {op.element}"
            where = f"op {i}" if lines is None else f"stream line {lines[i]}"
            raise ValueError(f"{where}: {refusal}")
        self.ops = ops

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    @property
    def insertion_only(self) -> bool:
        return all(op.kind == INSERT for op in self.ops)

    def elements(self) -> frozenset[int]:
        """All ids ever inserted."""
        return frozenset(op.element for op in self.ops if op.kind == INSERT)

    @classmethod
    def inserts(cls, ids) -> "Stream":
        return cls([StreamOp(INSERT, e) for e in ids])

    # file format: header "stream v1", then "I <id>" / "D <id>" lines
    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("stream v1\n")
            for op in self.ops:
                fh.write(f"{op.kind} {op.element}\n")

    @classmethod
    def load(cls, path) -> "Stream":
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "stream v1":
                raise ValueError(f"bad stream header {header!r}")
            ops, lines = [], []
            for lineno, line in enumerate(fh, start=2):
                tok = line.split()
                if not tok:
                    continue
                try:
                    kind, sid = tok
                    ops.append(StreamOp(kind, int(sid)))
                except ValueError:
                    raise ValueError(f"bad stream line {lineno}: "
                                     f"{line.strip()!r}") from None
                lines.append(lineno)
        return cls(ops, lines)
