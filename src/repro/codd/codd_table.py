"""Codd tables: relations whose cells may hold NULL variables.

A :class:`CoddTable` is the paper's Figure-1 object: a relation in which
some cells contain :class:`Null` markers. Each Null is a *distinct* variable
(Codd semantics: variables are never shared between cells) ranging over a
finite domain, so a table with nulls ``v_1 .. v_n`` over domains
``D_1 .. D_n`` represents ``|D_1| × ... × |D_n|`` possible worlds — each a
complete :class:`~repro.codd.relation.Relation`.

Finite domains keep the possible-world set enumerable, exactly as the
paper's incomplete *dataset* bounds each candidate set ``C_i`` by ``M``.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.codd.relation import Relation, _check_schema

__all__ = ["Null", "CoddTable"]


class Null:
    """A NULL variable with a finite domain of possible values.

    Each instance is a distinct variable; two ``Null`` objects never compare
    equal even with identical domains (Codd tables do not share variables
    between cells).
    """

    __slots__ = ("_domain",)

    def __init__(self, domain: Iterable[Any]) -> None:
        values = tuple(dict.fromkeys(domain))  # dedupe, keep order
        if not values:
            raise ValueError("a NULL variable needs a non-empty domain")
        self._domain = values

    @property
    def domain(self) -> tuple[Any, ...]:
        """The possible values of this variable."""
        return self._domain

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self._domain[:3])
        suffix = ", ..." if len(self._domain) > 3 else ""
        return f"Null({{{preview}{suffix}}})"


class CoddTable:
    """A relation with NULL variables in some cells.

    Parameters
    ----------
    schema:
        Ordered attribute names.
    rows:
        Sequence of tuples whose entries are either constants or
        :class:`Null` instances. Unlike :class:`Relation`, rows form a
        *list*, not a set: two rows that look identical before valuation may
        differ after it.
    """

    def __init__(self, schema: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
        self._schema = _check_schema(schema)
        arity = len(self._schema)
        table: list[tuple[Any, ...]] = []
        variables: list[tuple[int, int, Null]] = []
        for r, row in enumerate(rows):
            tup = tuple(row)
            if len(tup) != arity:
                raise ValueError(
                    f"row {r} has arity {len(tup)}, schema {self._schema} needs {arity}"
                )
            for c, cell in enumerate(tup):
                if isinstance(cell, Null):
                    variables.append((r, c, cell))
            table.append(tup)
        self._init_validated(tuple(table), tuple(variables))

    @classmethod
    def _from_validated(
        cls,
        schema: tuple[str, ...],
        rows: tuple[tuple[Any, ...], ...],
        variables: tuple[tuple[int, int, Null], ...],
    ) -> "CoddTable":
        """A table from parts already known valid, with no re-validation:
        a checked ``schema``, ``rows`` of its arity, and ``variables``
        listing their NULL cells in ``(row, column)`` order."""
        table = cls.__new__(cls)
        table._schema = schema
        table._init_validated(rows, variables)
        return table

    def _init_validated(
        self, rows: tuple[tuple[Any, ...], ...], variables: tuple[tuple[int, int, Null], ...]
    ) -> None:
        self._rows = rows
        self._variables = variables
        self._fingerprint: str | None = None
        self._row_digests: bytes | None = None
        self._row_completions: tuple[int, ...] | None = None
        self._n_worlds: int | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> tuple[str, ...]:
        """Ordered attribute names."""
        return self._schema

    @property
    def rows(self) -> tuple[tuple[Any, ...], ...]:
        """Rows with constants and :class:`Null` markers."""
        return self._rows

    @property
    def variables(self) -> tuple[tuple[int, int, Null], ...]:
        """All NULL variables as ``(row, column, null)`` triples."""
        return self._variables

    @property
    def n_variables(self) -> int:
        """Number of NULL cells."""
        return len(self._variables)

    def n_worlds(self) -> int:
        """Exact number of possible worlds (big int). Computed once; a
        fixed cell divides its parent's count by the cell's domain size."""
        if self._n_worlds is None:
            self._n_worlds = math.prod(len(null.domain) for _, _, null in self._variables)
        return self._n_worlds

    def row_completions(self) -> tuple[int, ...]:
        """Per row, its number of row-local completions: the product of
        its NULL domain sizes (1 for a complete row). Computed once."""
        if self._row_completions is None:
            counts = [1] * len(self._rows)
            for r, _, null in self._variables:
                counts[r] *= len(null.domain)
            self._row_completions = tuple(counts)
        return self._row_completions

    def is_complete(self) -> bool:
        """True iff the table holds no NULLs."""
        return not self._variables

    def fingerprint(self) -> str:
        """A content hash of the table (schema, constants, NULL domains).

        Two tables with identical schemas, constants and NULL domains share
        a fingerprint even though their :class:`Null` *variables* are
        distinct objects — evaluation depends only on positions and
        domains, which is exactly what caches (the vectorized engine's
        prepared-grid LRU, the service's SQL result cache) need to key on.
        It is the SHA-256 over the schema, the row count and the ordered
        per-row SHA-256 digests; :meth:`with_cell_fixed` inherits the
        parent's row digests and hashes only the fixed row. Instances are
        immutable, so the hash is computed once.
        """
        if self._fingerprint is None:
            if self._row_digests is None:
                self._row_digests = b"".join(map(_row_digest, self._rows))
            digest = hashlib.sha256(f"{self._schema!r}|{len(self._rows)}|".encode("utf-8"))
            digest.update(self._row_digests)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def attribute_index(self, name: str) -> int:
        """Position of attribute ``name`` in the schema."""
        try:
            return self._schema.index(name)
        except ValueError:
            raise KeyError(f"attribute {name!r} not in schema {self._schema}") from None

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return (
            f"CoddTable(schema={self._schema}, n_rows={len(self._rows)}, "
            f"n_variables={self.n_variables}, n_worlds={self.n_worlds()})"
        )

    # ------------------------------------------------------------------
    # Possible-world semantics
    # ------------------------------------------------------------------
    def world(self, valuation: Mapping[tuple[int, int], Any]) -> Relation:
        """Materialise the world where each NULL cell takes ``valuation[(r, c)]``.

        Every NULL cell must be assigned a value from its domain.
        """
        filled: list[tuple[Any, ...]] = []
        seen: set[tuple[int, int]] = set()
        for r, row in enumerate(self._rows):
            cells = []
            for c, cell in enumerate(row):
                if isinstance(cell, Null):
                    if (r, c) not in valuation:
                        raise KeyError(f"valuation missing NULL cell ({r}, {c})")
                    value = valuation[(r, c)]
                    if value not in cell.domain:
                        raise ValueError(
                            f"value {value!r} outside the domain of NULL cell ({r}, {c})"
                        )
                    cells.append(value)
                    seen.add((r, c))
                else:
                    cells.append(cell)
            filled.append(tuple(cells))
        extra = set(valuation) - seen
        if extra:
            raise KeyError(f"valuation assigns non-NULL cells {sorted(extra)}")
        return Relation(self._schema, filled)

    def possible_worlds(self) -> Iterator[Relation]:
        """Iterate over every possible world (``n_worlds()`` relations).

        The iteration order is the lexicographic product of the variable
        domains in ``(row, column)`` order, so it is deterministic.
        """
        cells = [(r, c) for r, c, _ in self._variables]
        domains = [null.domain for _, _, null in self._variables]
        for combo in itertools.product(*domains):
            yield self.world(dict(zip(cells, combo)))

    # ------------------------------------------------------------------
    # Constructors / derivation
    # ------------------------------------------------------------------
    @classmethod
    def from_relation(cls, relation: Relation) -> "CoddTable":
        """Wrap a complete relation as a Codd table without NULLs."""
        return cls(relation.schema, sorted(relation.rows, key=repr))

    def with_cell_fixed(self, row: int, column: int, value: Any) -> "CoddTable":
        """A copy in which NULL cell ``(row, column)`` is replaced by ``value``.

        Mirrors :meth:`repro.core.dataset.IncompleteDataset.with_row_fixed`:
        the value must come from the variable's domain (validity assumption).
        """
        row = range(len(self._rows))[row]
        column = range(len(self._schema))[column]
        cell = self._rows[row][column]
        if not isinstance(cell, Null):
            raise ValueError(f"cell ({row}, {column}) is not NULL")
        if value not in cell.domain:
            raise ValueError(f"value {value!r} outside the domain of cell ({row}, {column})")
        # Every other row, variable and digest is unchanged: splice the one
        # row instead of re-scanning (and re-hashing) every cell.
        old_row = self._rows[row]
        new_row = old_row[:column] + (value,) + old_row[column + 1 :]
        index = bisect.bisect_left(self._variables, (row, column), key=lambda v: v[:2])
        table = CoddTable._from_validated(
            self._schema,
            self._rows[:row] + (new_row,) + self._rows[row + 1 :],
            self._variables[:index] + self._variables[index + 1 :],
        )
        if self._row_digests is not None:
            start = 32 * row
            table._row_digests = (
                self._row_digests[:start] + _row_digest(new_row) + self._row_digests[start + 32 :]
            )
        if self._row_completions is not None:
            completions = self._row_completions
            fixed = completions[row] // len(cell.domain)
            table._row_completions = completions[:row] + (fixed,) + completions[row + 1 :]
        if self._n_worlds is not None:
            table._n_worlds = self._n_worlds // len(cell.domain)
        return table


def _row_digest(row: tuple[Any, ...]) -> bytes:
    """The SHA-256 of one row's cells: ``N`` + domain or ``C`` + constant reprs."""
    cells = "".join(
        f"N{cell.domain!r}" if isinstance(cell, Null) else f"C{cell!r}" for cell in row
    )
    return hashlib.sha256(cells.encode("utf-8")).digest()
