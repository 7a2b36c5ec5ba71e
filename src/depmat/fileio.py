"""Graph JSON format, matrix and table rendering, and DOT export.

The graph document is strict JSON: unknown fields are rejected so typos
surface early. The loader checks the JSON shape; every other input rule
is ``graph``'s, and a valid document is loaded a column at a time.
Serialization is canonical (schema field order, 2-space indent, trailing
newline) and parse(serialize(g)) == g, including node and edge order.

Output is laid out here alone: ``_matrix_rows`` writes every matrix row,
in every format, and ``text_table`` every aligned text table.

    {
      "format_version": 1,
      "unit": "ms",
      "nodes": [{"id": "v0", "label": "...", "kind": "auto"}, ...],
      "edges": [{"id": "a", "from": "v0", "to": "v1", "weight": 3,
                 "kind": "scheduling"}, ...]
    }
"""

from __future__ import annotations

import csv
import functools
import json
import re
import sys
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterator, Sequence

from .graph import (
    MISSING,
    ActivityGraph,
    CyclicScheduleError,
    EDGE_DEPENDENCY_ONLY,
    EDGE_DUMMY,
    EDGE_SCHEDULING,
    KIND_AUTO,
    _checked_graph,
    _item_faults,
    _unit_faults,
    shown,
)
from .localization import LocalizationReport
from .matrices import AdjacencyMatrix, DependencyMatrix, IncidenceMatrix
from .schedule import EmptyGraphError, compute_schedule

FORMAT_VERSION = 1

_DOCUMENT_FIELDS = {"format_version", "unit", "nodes", "edges"}
# each item field in file order, with its value when left out
_NODE_FIELDS = {"id": MISSING, "label": None, "kind": KIND_AUTO}
_EDGE_FIELDS = {"id": MISSING, "from": MISSING, "to": MISSING, "weight": MISSING, "kind": EDGE_SCHEDULING}


class ParseError(ValueError):
    """Malformed JSON; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line} column {column}: {message}")


class SchemaError(ValueError):
    """Well-formed JSON that violates the graph schema; carries a locus like
    ``edges[3].weight`` and, for a structural error, its ``issues``."""

    def __init__(self, message: str, locus: str, issues: tuple = ()):
        self.locus = locus
        self.issues = issues
        super().__init__(f"{locus}: {message}")


def _decode(data: bytes | str) -> tuple[dict, str]:
    """The decoded document, checked up to its ``unit``, and the unit."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc.reason}", 1, 1) from None
    else:
        text = data
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError("nesting too deep", 1, 1) from None
    except SchemaError:  # raised by _unique_keys inside json.loads
        raise
    except ValueError:  # an integer literal past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integer literal longer than {limit} digits", 1, 1) from None

    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object", "$")
    for key in doc:
        if key not in _DOCUMENT_FIELDS:
            raise SchemaError(f"unknown field {key!r}", shown(key))
    version = _get(doc, "format_version", "$")
    if type(version) is not int or version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version!r}", "format_version")
    unit = doc.get("unit", "ms")
    for issue in _unit_faults(unit):
        raise SchemaError(issue.message, "unit")
    return doc, unit


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` object hook: strict JSON has no last-wins keys."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise SchemaError(f"duplicate key {key!r}", shown(key))
    return obj


def parse_graph(data: bytes | str) -> ActivityGraph:
    """Parse and fully validate: a valid document becomes a graph of columns
    with no records. Any other is walked once by ``_item_faults``, and the
    first item error the loader reports is raised; else the structural errors
    surface as one SchemaError at the first one's array locus, counting the
    rest, and carry them all."""
    doc, unit = _decode(data)
    graph = _checked_columns(doc, unit)
    if graph is not None:
        return graph
    issues, loci = [], []
    for array, i, suffix, template, issue in _item_faults(_fields(doc, "nodes"), _fields(doc, "edges")):
        if template:
            raise SchemaError(template.format_map(doc[array][i]), f"{array}[{i}]{suffix}")
        issues.append(issue)
        loci.append(f"{array}[{i}]")
    more = f" (+{len(issues) - 1} more)" if len(issues) > 1 else ""
    raise SchemaError(issues[0].message + more, loci[0], tuple(issues))


def _fields(doc: dict, array: str) -> Iterator[list]:
    """Each item's field values in file order, defaults filled in; ``array``
    is looked up on first read. Raises at a non-object or an unknown field."""
    items = _get(doc, array, "$")
    if not isinstance(items, list):
        raise SchemaError(f"{array} must be an array", array)
    fields = _NODE_FIELDS if array == "nodes" else _EDGE_FIELDS
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise SchemaError(f"{array[:-1]} must be an object", f"{array}[{i}]")
        unknown = [key for key in item if key not in fields]
        if unknown:
            raise SchemaError(f"unknown field {unknown[0]!r}", f"{array}[{i}].{shown(unknown[0])}")
        yield [item.get(field, default) for field, default in fields.items()]


def _checked_columns(doc: dict, unit: str) -> ActivityGraph | None:
    """The graph of a document whose items are objects with only known
    fields and whose columns pass ``_checked_graph``, or None. A missing field
    (KeyError) or an unhashable or non-string value (TypeError) fails too."""
    nodes, edges = doc.get("nodes"), doc.get("edges")
    if type(nodes) is not list or type(edges) is not list:
        return None
    arrays = (nodes, _NODE_FIELDS), (edges, _EDGE_FIELDS)
    with suppress(KeyError, TypeError):  # ids first, so every item is an object
        columns = [
            # a required field by itemgetter, which raises where it is left out
            [list(map(itemgetter(key), items)) if default is MISSING else [item.get(key, default) for item in items]
             for key, default in fields.items()]
            for items, fields in arrays
        ]
        if all(fields.keys() >= set().union(*items) for items, fields in arrays):
            return _checked_graph(*columns, unit)
    return None


def _get(mapping: dict, key: str, locus: str):
    """``mapping[key]``; a missing key is reported at ``locus``."""
    if key not in mapping:
        raise SchemaError(f"missing required field {key!r}", locus)
    return mapping[key]


def serialize_graph(g: ActivityGraph) -> bytes:
    """Canonical UTF-8 document bytes; inverse of ``parse_graph``."""
    nodes = []
    for node_id, label, kind in zip(g.node_ids, g.node_labels, g.node_kinds):
        entry: dict = {"id": node_id}
        if label is not None:
            entry["label"] = label
        if kind != KIND_AUTO:
            entry["kind"] = kind
        nodes.append(entry)
    ends = [[g.node_ids[v] for v in column] for column in (g.edge_tails, g.edge_heads)]
    edges = Records(("id", "from", "to", "weight", "kind"), (g.edge_ids, *ends, g.edge_weights, g.edge_kinds))
    doc = {"format_version": FORMAT_VERSION, "unit": g.unit, "nodes": nodes, "edges": edges}
    return (dumps_json(doc) + "\n").encode("utf-8")


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_MATRIX_TYPES = frozenset({IncidenceMatrix, AdjacencyMatrix, DependencyMatrix})
# per one-type column, the C-level function json applies to each value
_COLUMN_RENDERERS = {str: encode_basestring, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__}


@dataclass(frozen=True)
class Records:
    """A list of records given as column data: ``dumps_json`` renders it as
    the list ``[dict(zip(keys, row)) for row in zip(*columns)]``."""

    keys: Sequence
    columns: Sequence[Sequence]


def dumps_json(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, ensure_ascii=False)``, rendered
    mostly by the stdlib C encoder. ``json.dumps`` uses its C encoder only
    without ``indent``; with it, every value goes through Python generators.
    Here each container whose values are all scalars is one C call whose
    item separator carries the newline and indentation.

    ``obj`` may hold matrices, each rendered as its ``rows`` list by
    ``_matrix_rows``, and ``Records``. A list whose columns each hold one type
    among str, int and bool, or hold only tuples of scalars, is rendered
    into one ``%`` template built from its keys, each column by one C-level
    ``map``; any other list as its records' dicts. The template is cut at
    each tuple column, whose distinct tuples (by id: ``obj`` keeps them
    alive) are rendered once each and stay chunks of their own. That is
    exact because every record has the keys of ``dict(zip(keys, columns))``
    in that order, and ``json`` renders a value alike wherever it stands at
    one depth."""
    chunks: list[str] = []
    _append_json(obj, 0, chunks)
    return "".join(chunks)


@functools.cache
def _encoder(separator: str) -> json.JSONEncoder:
    """C-backed encoder whose item separator is ``separator``: for the items
    of a container at depth d, a comma, a newline and d indents."""
    return json.JSONEncoder(ensure_ascii=False, separators=(separator, ": "))


def _append_json(obj, depth: int, chunks: list[str]) -> None:
    if type(obj) in _MATRIX_TYPES:
        _append_matrix(obj, depth, chunks)
        return
    if type(obj) is Records:
        _append_records(obj, depth, chunks)
        return
    if isinstance(obj, dict):
        values, opening, closing = obj.values(), "{", "}"
    elif isinstance(obj, (list, tuple)):
        values, opening, closing = obj, "[", "]"
    elif type(obj) is str:
        chunks.append(encode_basestring(obj))
        return
    elif type(obj) is int:
        chunks.append(int.__repr__(obj))
        return
    else:
        chunks.append(_encoder(",").encode(obj))
        return
    if not obj:
        chunks.append(opening + closing)
        return
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    if _SCALAR_TYPES.issuperset(map(type, values)):
        chunks += (opening, inner, _encoder("," + inner).encode(obj)[1:-1], outer, closing)
        return
    chunks.append(opening)
    lead = inner
    if isinstance(obj, dict):
        for key, value in obj.items():
            chunks += (lead, _json_key(key), ": ")
            lead = "," + inner
            _append_json(value, depth + 1, chunks)
    else:
        for value in obj:
            chunks.append(lead)
            lead = "," + inner
            _append_json(value, depth + 1, chunks)
    chunks += (outer, closing)


def _append_records(records: Records, depth: int, chunks: list[str]) -> None:
    count = min(map(len, records.columns), default=0)  # the rows zip(*columns) yields
    fields = dict(zip(records.keys, records.columns))
    columns = [column[:count] for column in fields.values()]
    texts = [_column_texts(column, depth + 2) for column in columns]
    if None in texts or not texts:  # no rows or keys, or a column of other types
        _append_json([dict(zip(records.keys, row)) for row in zip(*records.columns)], depth, chunks)
        return
    lead, inner = "\n" + "  " * (depth + 2), "\n" + "  " * (depth + 1)
    # Each record, comma-led, as the pieces of a template cut at each tuple
    # column, whose text is a piece of its own. One chunk per piece: joining
    # them here first would copy the list's text once more.
    pieces, values, template = [], [], "," + inner + "{"
    for n, (key, column, text) in enumerate(zip(fields, columns, texts)):
        template += ("," if n else "") + lead + _json_key(key).replace("%", "%%") + ": "
        if type(column[0]) is tuple:
            pieces += (map(template.__mod__, zip(*values) if values else repeat((), count)), text)
            template, values = "", []
        else:
            template, values = template + "%s", values + [text]
    template += inner + "}"
    pieces.append(map(template.__mod__, zip(*values) if values else repeat((), count)))
    chunks.append("[")
    first = len(chunks)
    chunks += pieces[0] if len(pieces) == 1 else chain.from_iterable(zip(*pieces))
    chunks[first] = chunks[first][1:]  # no comma before the first record
    chunks += ("\n" + "  " * depth, "]")


def _column_texts(column: Sequence, depth: int) -> Iterator[str] | None:
    """Each value's JSON text at ``depth`` when all are of one type among
    str, int and bool, or all are tuples of scalars, each distinct one
    rendered once; else None."""
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is not tuple:
        return map(_COLUMN_RENDERERS[kind], column) if kind in _COLUMN_RENDERERS else None
    distinct = {id(value): value for value in column}
    if not _SCALAR_TYPES.issuperset(map(type, chain.from_iterable(distinct.values()))):
        return None
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    texts = {key: "[" + inner + _encoder("," + inner).encode(value)[1:-1] + outer + "]" if value else "[]"
             for key, value in distinct.items()}
    return map(texts.__getitem__, map(id, column))


def _append_matrix(matrix, depth: int, chunks: list[str]) -> None:
    row_labels, col_labels = _labels(matrix)
    if not (row_labels and col_labels):  # no rows, or rows of no cells
        _append_json([[]] * len(row_labels), depth, chunks)
        return
    inner, lead = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    texts = _matrix_rows(matrix, "," + lead, "[" + lead, inner + "]")
    # one chunk per row, as for Records
    chunks += ("[", inner, next(texts))
    chunks += chain.from_iterable(zip(repeat("," + inner), texts))
    chunks += ("\n" + "  " * depth, "]")


def _json_key(key) -> str:
    """``key`` as a quoted JSON object key. ``json`` quotes the scalar form
    of a float, int, bool or None key and rejects any other type."""
    if isinstance(key, str):
        return encode_basestring(key)
    return _encoder(",").encode({key: None})[1:-7]  # drop '{' and ': null}'


def matrix_csv(matrix: IncidenceMatrix | AdjacencyMatrix | DependencyMatrix) -> str:
    """CSV with column labels in the header row and the row node id in the
    first column.

    ``csv.writer`` renders the header and quotes every label; the cells are
    bare integers, so each row's cells are one ``_matrix_rows`` text.
    """
    row_labels, col_labels = _labels(matrix)
    written: list[str] = []
    writer = csv.writer(SimpleNamespace(write=written.append), lineterminator="\n")
    writer.writerow(["", *col_labels])
    # Each label is written as a record's first field, then followed by
    # the comma before its cells; with no columns it stands alone, where
    # the writer renders an empty label as '""'.
    rest = ("",) if col_labels else ()
    for label, row in zip(row_labels, _matrix_rows(matrix, ",", tail="\n")):
        writer.writerow((label, *rest))
        written[-1] = written[-1][:-1] + row
    return "".join(written)


def matrix_text(matrix: IncidenceMatrix | AdjacencyMatrix | DependencyMatrix) -> str:
    """Aligned plain-text table of the same cells as the CSV form, each
    cell right-aligned under its column label."""
    row_labels, col_labels = _labels(matrix)
    return text_table(("", *col_labels), row_labels, list(_matrix_rows(matrix)), str.rjust)


def text_table(header: Sequence[str], labels: Sequence[str], rows: Sequence[Sequence], justify=str.ljust) -> str:
    """Lines of ``header``, then of each label and its row's cells: columns
    two spaces apart, each as wide as its widest text, trailing blanks
    stripped; labels left-aligned, cells aligned by ``justify``."""
    label_width = max(map(len, chain(header[:1], labels)))
    widths = [max(map(len, column)) for column in zip(header[1:], *rows)]
    lines = (
        "  ".join([label.ljust(label_width), *map(justify, row, widths)]).rstrip() + "\n"
        for label, row in zip(chain(header[:1], labels), chain((header[1:],), rows))
    )
    return "".join(lines)


def matrix_fields(matrix: IncidenceMatrix | AdjacencyMatrix | DependencyMatrix) -> dict:
    """A matrix's JSON fields: its labels, ``rows`` (the matrix itself, which
    ``dumps_json`` renders as its rows) and, for a closure, ``closed``."""
    row_labels, col_labels = _labels(matrix)
    closed = {"closed": True} if getattr(matrix, "closed", False) else {}
    return {"row_labels": row_labels, "col_labels": col_labels, "rows": matrix, **closed}


def _labels(matrix) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Row labels (node ids) and column labels (edge ids or node ids)."""
    return matrix.node_ids, matrix.edge_ids if isinstance(matrix, IncidenceMatrix) else matrix.node_ids


def _matrix_rows(matrix, separator: str | None = None, head: str = "", tail: str = "") -> Iterator:
    """Each row's text: ``head``, its cells with ``separator`` between
    them, then ``tail``; with no separator, the sequence of its cells. A
    dependency row is its mask's digits (``_digit_rows``), one character per
    cell; a weight row is one C-level join of its ints, by the ``_encoder``
    of ``separator``."""
    if isinstance(matrix, DependencyMatrix):
        return _digit_rows(matrix.masks, len(matrix.node_ids), separator or "", head, tail)
    encode = _encoder(separator or ",").encode
    texts = (head + encode(row)[1:-1] + tail for row in matrix.rows)
    return texts if separator is not None else map(str.split, texts, repeat(","))


def _digit_rows(masks: Sequence[int], width: int, separator: str, head: str = "", tail: str = "") -> Iterator[str]:
    """Per mask, ``head``, its low ``width`` bits as 0/1 digits, least
    significant first, ``separator`` between them, then ``tail``. All
    three are ASCII; each mask is in ``range(1 << width)``, and there is
    none when ``width`` is 0.

    The digits of each row go into one reused template with one strided
    slice assignment, so a row costs a few C calls, whatever its width:
    ``format`` writes the ``width`` digits most significant first, and the
    slice walks the cells from the last to the first."""
    template = bytearray((head + separator.join("0" * width) + tail).encode("ascii"))
    stride = 1 + len(separator)
    cells = slice(len(head) + (width - 1) * stride, len(head) - 1 if head else None, -stride)
    digits = f"0{width}b"

    def row(mask: int) -> str:
        template[cells] = format(mask, digits).encode("ascii")
        return template.decode("ascii")

    return map(row, masks)


_BARE_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _dot_id(name: str) -> str:
    if _BARE_DOT_ID.match(name):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: ActivityGraph, report: LocalizationReport | None = None) -> bytes:
    """Render the graph in DOT: when it has a schedule (it is neither empty
    nor cyclic), critical nodes double-circled and the rest circled;
    dependency-only edges dashed, dummy edges dotted, weights as edge
    labels, and the report's independent-fault symptoms marked red."""
    try:
        critical = set(compute_schedule(g).critical_nodes)
    except (CyclicScheduleError, EmptyGraphError):
        critical = None
    independent = set(report.independent) if report else set()
    names = list(map(_dot_id, g.node_ids))  # each node's DOT name, made once
    lines = ["digraph activities {", "  rankdir=LR;"]
    for node_id, name in zip(g.node_ids, names):
        attrs: list[str] = []
        if critical is not None:
            attrs.append("shape=doublecircle" if node_id in critical else "shape=circle")
        if node_id in independent:
            attrs.append("color=red")
            attrs.append('xlabel="independent fault"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {name}{suffix};")
    for tail, head, weight, kind in zip(g.edge_tails, g.edge_heads, g.edge_weights, g.edge_kinds):
        attrs = [f'label="{weight}"']
        if kind == EDGE_DEPENDENCY_ONLY:
            attrs.append("style=dashed")
        elif kind == EDGE_DUMMY:
            attrs.append("style=dotted")
        lines.append(f"  {names[tail]} -> {names[head]} [{', '.join(attrs)}];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
