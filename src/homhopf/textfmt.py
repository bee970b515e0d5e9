"""The line-oriented structure-document format: parse, canonical print,
realization into library objects, and the standard check driver.

Grammar (FORMAT 1):

    document  = "FORMAT 1" field block*
    field     = "FIELD Q" | "FIELD GF" prime
    block     = kind name NL stanza* "END"
    kind      = ALGEBRA | COALGEBRA | BIALGEBRA | HOPF
              | ACTION | COACTION | RMATRIX | FORM

Every stanza is declared once, in STANZAS: the block kinds that read it, its
indices, the length of its scalar rows and the matrix entry each scalar
lands in.  Parsing, validation, realization and printing all read that
table; a stanza in a block kind that does not read it is refused.  Library
objects print by becoming a `Block`, through the same printer as parsed
documents.  See the README for the full stanza list.
"""

from dataclasses import dataclass, field as dc_field
from functools import cache, lru_cache, partial
from itertools import product
from math import prod
from operator import mul

from .fields import _INTEGER_RE, ExactError, GF, QQ, _integer
from .matrices import Matrix
from .structures import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    check_antipode,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
)
from .actions import (
    ActionMap,
    CoactionMap,
    YDModule,
    check_action_axioms,
    check_coaction_axioms,
    check_hyd,
    check_hyd_prime,
)
from .catalog import catalog_entry
from .constructions import carrier_antipode_report
from .quasitriangular import (
    CobraidingForm,
    RMatrix,
    check_cobraiding_equivalence,
    check_quasitriangular,
)

__all__ = [
    "ParseError",
    "Block",
    "StructureDocument",
    "parse_document",
    "document_lines",
    "render_document",
    "Realization",
    "realize",
    "run_checks",
    "catalog_document",
    "render_matrix_rows",
    "render_parsed",
]

STRUCTURAL_KINDS = ("ALGEBRA", "COALGEBRA", "BIALGEBRA", "HOPF")
MAP_KINDS = ("ACTION", "COACTION")
ELEMENT_KINDS = ("RMATRIX", "FORM")
BLOCK_KINDS = STRUCTURAL_KINDS + MAP_KINDS + ELEMENT_KINDS
ACTING_KINDS = ("HOPF", "BIALGEBRA")  # what an ACTING stanza, or --hopf, names
MULTIPLYING = ("ALGEBRA", "BIALGEBRA", "HOPF")
COMULTIPLYING = ("COALGEBRA", "BIALGEBRA", "HOPF")
CARRYING = STRUCTURAL_KINDS + MAP_KINDS
# what an ACTION/COACTION states about its carrier when no CARRIER names it
CARRIER_STANZAS = ("DIM", "BASIS", "TWIST")


class ParseError(Exception):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _read_dim(tokens, lineno):
    if len(tokens) < 2 or not _INTEGER_RE.fullmatch(tokens[1]):
        raise ParseError(lineno, "malformed DIM")
    if (dim := _integer(tokens[1])) <= 0:
        raise ParseError(lineno, "DIM must be positive")
    return dim


def _read_labels(tokens, lineno):
    labels = tuple(tokens[1:])
    if len(set(labels)) < len(labels):
        twice = next(t for k, t in enumerate(labels) if t in labels[:k])
        raise ParseError(lineno, f"duplicate basis label {twice!r}")
    return labels


def _read_name(tokens, lineno):
    if len(tokens) != 2:
        raise ParseError(lineno, f"{tokens[0]} needs exactly one name")
    return tokens[1]


@dataclass(frozen=True)
class Stanza:
    """One stanza keyword as the block kinds in `kinds` read it.

    A header stanza has a `read` function and sets the `Block` attribute
    named after its keyword.  A row stanza keeps its rows of scalars in
    `Block.rows[keyword]`, keyed by their indices.  Sizes are named by
    letters: n is the block's own dimension (its carrier's, for an ACTION
    or COACTION) and h the dimension of the structure it names by ACTING
    or ON.  The indices range over `index`, a row holds `length` scalars
    (a product of sizes), and `entry` gives the legs flattened, row-major,
    into the row and the column of the realized matrix: i and j are the
    indices and p the position in the row.
    """

    keyword: str
    kinds: tuple
    read: object = None
    index: tuple = ()
    length: str = ""
    entry: tuple = ("", "")
    sparse: bool = False  # omitted rows are zero, and zero rows are not printed
    required: tuple = ()  # the kinds that must give it
    noun: str = "entry"  # a repeated row is a "duplicate KEYWORD noun i"

    @property
    def deferred(self):
        """Sized by the referenced structure, so checked when realized."""
        return "h" in "".join(self.index) + self.length


STANZAS = (
    Stanza("DIM", CARRYING, _read_dim),
    Stanza("BASIS", CARRYING, _read_labels),
    Stanza("ACTING", MAP_KINDS, _read_name),
    Stanza("CARRIER", MAP_KINDS, _read_name),
    Stanza("ON", ELEMENT_KINDS, _read_name),
    Stanza("UNIT", MULTIPLYING, length="n", entry=("p", ""), required=MULTIPLYING),
    Stanza("COUNIT", COMULTIPLYING, length="n", entry=("", "p"), required=COMULTIPLYING),
    Stanza("TWIST", CARRYING, index=("n",), length="n", entry=("p", "i"), noun="row"),
    Stanza("MULT", MULTIPLYING, index=("n", "n"), length="n", entry=("p", "ij"), sparse=True),
    Stanza("COMULT", COMULTIPLYING, index=("n",), length="nn", entry=("p", "i"), sparse=True),
    Stanza(
        "ANTIPODE", STRUCTURAL_KINDS, index=("n",), length="n", entry=("p", "i"),
        required=("HOPF",), noun="row",
    ),
    Stanza("MAP", ("ACTION",), index=("h", "n"), length="n", entry=("p", "ij"), sparse=True),
    Stanza("MAP", ("COACTION",), index=("n",), length="hn", entry=("p", "i"), sparse=True),
    Stanza("COEFF", ("RMATRIX",), index=("h",), length="h", entry=("ip", ""), sparse=True,
           noun="row"),
    Stanza("COEFF", ("FORM",), index=("h",), length="h", entry=("i", "p"), sparse=True,
           noun="row"),
)

_KIND_STANZAS = {kind: tuple(s for s in STANZAS if kind in s.kinds) for kind in BLOCK_KINDS}
_STANZA = {(kind, s.keyword): s for kind, stanzas in _KIND_STANZAS.items() for s in stanzas}
_KEYWORDS = {s.keyword for s in STANZAS}


@dataclass
class Block:
    kind: str
    name: str
    lineno: int
    dim: int | None = None
    basis: tuple | None = None
    acting: str | None = None
    carrier: str | None = None
    on: str | None = None
    rows: dict = dc_field(default_factory=dict)  # keyword -> {indices: scalars}


@dataclass
class StructureDocument:
    field: object
    blocks: tuple


def _size(word, n, h=None):
    """The product of the sizes a word of size letters names."""
    return prod({"n": n, "h": h}[s] for s in word)


@lru_cache(maxsize=1024)
def _layout(stanza, n, h):
    """The extents of the legs (i, j, p) at sizes n and h, the realized
    matrix's shape, and the strides of (i, j, p) along its rows and along
    its columns."""
    extent = dict.fromkeys("ij", 0)
    extent.update(zip("ij", (_size(s, n, h) for s in stanza.index)), p=_size(stanza.length, n, h))
    shape, strides = [], []
    for legs in stanza.entry:
        stride, step = dict.fromkeys("ijp", 0), 1
        for leg in reversed(legs):
            stride[leg] = step
            step *= extent[leg]
        shape.append(step)
        strides.append(tuple(stride.values()))
    return tuple(extent.values()), tuple(shape), tuple(strides)


# ---------------------------------------------------------------------------
# parsing


def _parse_indices(tokens, count, lineno):
    if len(tokens) != count:
        raise ParseError(lineno, f"expected {count} indices, got {len(tokens)}")
    if not all(map(_INTEGER_RE.fullmatch, tokens)):
        raise ParseError(lineno, f"malformed index in {tokens}")
    idx = tuple(map(_integer, tokens))
    if any(i < 0 for i in idx):
        raise ParseError(lineno, f"index {idx} is negative")
    return idx


def _split_stanza(tokens, lineno, n_indices):
    if ":" not in tokens:
        raise ParseError(lineno, "missing ':' separator")
    sep = tokens.index(":")
    idx = _parse_indices(tokens[:sep], n_indices, lineno)
    return idx, tokens[sep + 1 :]


def parse_document(text):
    field = None
    blocks = []
    seen = set()
    current = None
    saw_format = False
    pending = []  # (lineno, stanza, indices) of the open block, validated at END
    scalars = {}  # each scalar token of this document, parsed at its first occurrence
    try:  # the field layer's refusals, such as a malformed scalar, name their line
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            head = tokens[0]
            if not saw_format:
                if tokens != ["FORMAT", "1"]:
                    raise ParseError(lineno, "document must start with 'FORMAT 1'")
                saw_format = True
                continue
            if field is None:
                if head != "FIELD":
                    raise ParseError(lineno, "expected a FIELD declaration")
                if tokens[1:] == ["Q"]:
                    field = QQ
                elif len(tokens) == 3 and tokens[1] == "GF":
                    if not _INTEGER_RE.fullmatch(tokens[2]):
                        raise ParseError(lineno, f"malformed modulus {tokens[2]!r}")
                    field = GF(_integer(tokens[2]))
                else:
                    raise ParseError(lineno, f"unknown field declaration {line!r}")
                continue
            if current is None:
                if head not in BLOCK_KINDS:
                    raise ParseError(lineno, f"unknown block kind {head!r}")
                if len(tokens) != 2:
                    raise ParseError(lineno, f"{head} header needs exactly one name")
                key = (head, tokens[1])
                if key in seen:
                    raise ParseError(lineno, f"duplicate block {head} {tokens[1]}")
                seen.add(key)
                current = Block(kind=head, name=tokens[1], lineno=lineno)
                continue
            if head == "END":
                _validate_block(current, pending)
                blocks.append(current)
                current = None
                pending = []
                continue
            pending.append(_parse_stanza(field, current, tokens, lineno, scalars))
    except ExactError as exc:
        raise ParseError(lineno, str(exc)) from exc
    if not saw_format:
        raise ParseError(1, "document must start with 'FORMAT 1'")
    if field is None:
        raise ParseError(1, "missing FIELD declaration")
    if current is not None:
        raise ParseError(current.lineno, f"block {current.kind} {current.name} is not closed")
    return StructureDocument(field, tuple(blocks))


def _parse_stanza(field, block, tokens, lineno, scalars):
    head = tokens[0]
    stanza = _STANZA.get((block.kind, head))
    if stanza is None:
        if head in _KEYWORDS:
            raise ParseError(lineno, f"{head} not allowed in {block.kind}")
        raise ParseError(lineno, f"unknown stanza keyword {head!r}")
    if stanza.read is not None:
        attr = head.lower()
        if getattr(block, attr) is not None:
            raise ParseError(lineno, f"duplicate {head}")
        setattr(block, attr, stanza.read(tokens, lineno))
        return lineno, stanza, None
    idx, rest = (
        _split_stanza(tokens[1:], lineno, len(stanza.index)) if stanza.index else ((), tokens[1:])
    )
    rows = block.rows.setdefault(head, {})
    if idx in rows:
        shown = f" {stanza.noun} {idx[0] if len(idx) == 1 else idx}" if idx else ""
        raise ParseError(lineno, f"duplicate {head}{shown}")
    rows[idx] = [  # a token this document has already given is not parsed again
        scalars[t] if t in scalars else scalars.setdefault(t, field.parse(t)) for t in rest
    ]
    return lineno, stanza, idx


def _validate_block(block, pending):
    kind = block.kind
    if kind in STRUCTURAL_KINDS and block.dim is None:
        raise ParseError(block.lineno, f"{kind} {block.name} is missing DIM")
    if block.carrier is not None:
        for lineno, stanza, _ in pending:
            if stanza.keyword in CARRIER_STANZAS:
                raise ParseError(lineno, f"{stanza.keyword} not allowed in {kind} with a CARRIER")
    elif kind in MAP_KINDS and block.dim is None:
        raise ParseError(
            block.lineno, f"{kind} {block.name} needs DIM (or a CARRIER reference)"
        )
    n = block.dim
    if n is None:
        return  # the remaining rows are sized by the referenced structure
    if block.basis is not None and len(block.basis) != n:
        raise ParseError(block.lineno, f"BASIS lists {len(block.basis)} labels for DIM {n}")
    checked = [s for s in _KIND_STANZAS[kind] if s.read is None and not s.deferred]
    lengths = {s.keyword: _size(s.length, n) for s in checked}
    for lineno, stanza, idx in pending:
        if stanza.keyword not in lengths:
            continue
        if any(i >= n for i in idx):
            raise ParseError(lineno, f"index {idx} exceeds DIM {n}")
        vals = block.rows[stanza.keyword][idx]
        length = lengths[stanza.keyword]
        if len(vals) != length:
            raise ParseError(lineno, f"expected {length} coefficients, got {len(vals)}")
    for stanza in _KIND_STANZAS[kind]:
        if kind in stanza.required and stanza.keyword not in block.rows:
            rows = " rows" if stanza.index else ""
            raise ParseError(block.lineno, f"{kind} {block.name} is missing {stanza.keyword}{rows}")


# ---------------------------------------------------------------------------
# realization


@dataclass
class Realization:
    field: object
    document: StructureDocument
    structures: dict
    antipodes: dict

    def find(self, kinds, name):
        """The structure registered under `name` by the first of `kinds` that has one, or None."""
        return next((self.structures[k, name] for k in kinds if (k, name) in self.structures), None)

    def carrier(self, name):
        """(algebra, coalgebra, antipode) of a carrier: its ALGEBRA and COALGEBRA
        blocks, else its BIALGEBRA's or HOPF's parts, and the first ANTIPODE
        among its blocks, in that order."""
        both = self.find(("BIALGEBRA", "HOPF"), name)
        antipodes = (self.antipodes.get((kind, name)) for kind in STRUCTURAL_KINDS)
        return (
            self.find(("ALGEBRA",), name) or getattr(both, "algebra", None),
            self.find(("COALGEBRA",), name) or getattr(both, "coalgebra", None),
            next(filter(None, antipodes), None),
        )


def _matrices(field, block, n, h=None):
    """The realized matrix of every row stanza the block gives, and the zero
    map for each sparse stanza it omits.  Rows sized by the referenced
    structure are checked here; the parser checked the others."""
    out = {}
    for stanza in _KIND_STANZAS[block.kind]:
        if stanza.read is not None or not (stanza.sparse or stanza.keyword in block.rows):
            continue
        extent, shape, (rs, cs) = _layout(stanza, n, h)
        deferred = stanza.deferred
        entries = {}
        for idx, vals in block.rows.get(stanza.keyword, {}).items():
            if deferred and (
                any(i >= e for i, e in zip(idx, extent)) or len(vals) != extent[2]
            ):
                shown = f"({','.join(map(str, idx))})" if len(idx) > 1 else idx[0]
                dims = f"DIM {h}" if n is None else f"dims {h}, {n}"
                raise ExactError(f"{stanza.keyword} row {shown} inconsistent with {dims}")
            # the scalar at p sits p strides of leg p past the row's first
            r, c = sum(map(mul, idx, rs)), sum(map(mul, idx, cs))
            for p, v in enumerate(vals):
                if v:  # a zero scalar stores nothing
                    entries[(r + p * rs[2], c + p * cs[2])] = v
        out[stanza.keyword] = Matrix(field, *shape, entries)
    return out


def realize(doc):
    """Build unchecked library objects from a parsed document."""
    real = Realization(doc.field, doc, {}, {})
    # structural blocks first: the others refer to them by name
    for block in sorted(doc.blocks, key=lambda b: b.kind not in STRUCTURAL_KINDS):
        if block.kind in STRUCTURAL_KINDS:
            _realize_structure(real, block)
        elif block.kind in MAP_KINDS:
            _realize_map(real, block)
        else:
            _realize_element(real, block)
    return real


def _realize_structure(real, block):
    field, n, name = real.field, block.dim, block.name
    maps = _matrices(field, block, n)
    # a twist or antipode equal to the identity, or to the twist or antipode
    # of an earlier block, is that object, solved for at most once
    known = (Matrix.identity(field, n), *(s.twist for s in real.structures.values()),
             *real.antipodes.values())
    for key in ("TWIST", "ANTIPODE"):
        if key in maps:
            maps[key] = next((k for k in known if k == maps[key]), maps[key])
    twist = maps.get("TWIST", known[0])
    basis = block.basis or None
    parts = []
    if "MULT" in maps:
        parts.append(HomAlgebra(
            field, maps["MULT"], maps["UNIT"], twist, basis=basis, name=name, check=False
        ))
    if "COMULT" in maps:
        parts.append(HomCoalgebra(
            field, maps["COMULT"], maps["COUNIT"], twist, basis=basis, name=name, check=False
        ))
    structure = HomBialgebra(*parts, name=name, check=False) if len(parts) == 2 else parts[0]
    if "ANTIPODE" in maps:
        real.antipodes[(block.kind, name)] = maps["ANTIPODE"]
    if block.kind == "HOPF":
        structure = HomHopf(structure, maps["ANTIPODE"], name=name, check=False)
    real.structures[(block.kind, name)] = structure


def _realize_map(real, block):
    field = real.field
    hom = _referenced(real, block, "ACTING", ACTING_KINDS)
    if block.carrier is not None:
        alg, coalg, _ = real.carrier(block.carrier)
        ref = alg or coalg
        if ref is None:
            raise ExactError(f"CARRIER {block.carrier!r} names no structural block")
        m, twist, basis = ref.dim, ref.twist, ref.basis
    else:
        m, twist, basis = block.dim, Matrix.identity(field, block.dim), block.basis or None
    maps = _matrices(field, block, m, hom.dim)
    cls = ActionMap if block.kind == "ACTION" else CoactionMap
    real.structures[(block.kind, block.name)] = cls(
        hom, maps["MAP"], maps.get("TWIST", twist), basis, name=block.name
    )


def _realize_element(real, block):
    hom = _referenced(real, block, "ON", ("HOPF",))
    coeff = _matrices(real.field, block, None, hom.dim)["COEFF"]
    cls = RMatrix if block.kind == "RMATRIX" else CobraidingForm
    real.structures[(block.kind, block.name)] = cls(hom, coeff)


def _referenced(real, block, keyword, kinds):
    """The structure of one of `kinds` a block names by its ACTING or ON stanza."""
    name = getattr(block, keyword.lower())
    if name is None:
        raise ExactError(f"{block.kind} {block.name} is missing {keyword}")
    found = real.find(kinds, name)
    if found is None:
        raise ExactError(f"no block of kind {'/'.join(kinds)} named {name!r}")
    return found


# ---------------------------------------------------------------------------
# checking driver


# kind -> (checker, title) of each block checked on its own; the checker is
# looked up when called, so that wrappers installed on the module names apply
_CHECKS = {
    "ALGEBRA": ("check_hom_algebra", "Hom-algebra axioms"),
    "COALGEBRA": ("check_hom_coalgebra", "Hom-coalgebra axioms"),
    "BIALGEBRA": ("check_hom_bialgebra", "Hom-bialgebra axioms"),
    "HOPF": ("check_hom_bialgebra", "Hom-bialgebra axioms"),
    "RMATRIX": ("check_quasitriangular", "quasitriangular axioms"),
    "FORM": ("check_cobraiding_equivalence", "cobraiding contract"),
}


def run_checks(real):
    """The deterministic suite `check` runs over a realized document."""
    reports = []
    doc = real.document
    for block in doc.blocks:
        key = (block.kind, block.name)
        obj = real.structures[key]
        title = f"{block.kind} {block.name}"
        if block.kind in MAP_KINDS:
            checker, flavor = (
                (check_action_axioms, "module")
                if block.kind == "ACTION"
                else (check_coaction_axioms, "comodule")
            )
            reports.append(checker(obj, flavor, title=f"{title}: {flavor} axioms"))
            pieces = (None, None, None) if block.carrier is None else real.carrier(block.carrier)
            for part, carrier in zip(("algebra", "coalgebra"), pieces):
                if carrier is not None:
                    on = f"{title}: {flavor} Hom-{part} axioms"
                    reports.append(checker(obj, f"{flavor}-{part}", carrier=carrier, title=on))
            continue
        checker, noun = _CHECKS[block.kind]
        args = (obj.hom, obj) if block.kind in ELEMENT_KINDS else (obj,)
        reports.append(globals()[checker](*args, title=f"{title}: {noun}"))
        if block.kind in ("BIALGEBRA", "HOPF") and key in real.antipodes:  # always, for HOPF
            s = real.antipodes[key]
            reports.append(check_antipode(obj, s, title=f"{title}: antipode axioms"))
    # paired antipodes on same-name ALGEBRA/COALGEBRA blocks
    for block in doc.blocks:
        if block.kind == "ALGEBRA" and real.find(("COALGEBRA",), block.name) is not None:
            alg, coalg, s = real.carrier(block.name)
            if s is not None:
                title = f"PAIR {block.name}: antipode identities"
                reports.append(carrier_antipode_report(alg, coalg, s, title=title))
    # Yetter-Drinfeld pairs: same-name ACTION and COACTION
    for block in doc.blocks:
        act, coact = (real.find((kind,), block.name) for kind in MAP_KINDS)
        if block.kind != "ACTION" or coact is None:
            continue
        module = YDModule(act, coact, name=block.name, check=False)
        hyd = check_hyd(module, title=f"PAIR {block.name}: Yetter-Drinfeld compatibility")
        reports.append(hyd)
        if getattr(act.hom, "antipode", None) is not None:
            title = f"PAIR {block.name}: antipode-form compatibility"
            reports.append(check_hyd_prime(module, title=title, hyd=hyd))
    return reports


# ---------------------------------------------------------------------------
# canonical printing: library objects become Blocks, and one printer turns
# every Block into text


def render_field(field):
    if field.characteristic == 0:
        return "FIELD Q"
    return f"FIELD GF {field.characteristic}"


def _block_lines(field, block, rows=None):
    """The canonical text of a block, yielded by line: stanzas in table
    order, rows in index order, zero rows of sparse stanzas dropped.  A given
    `rows(stanza)` yields (indices, words) in place of the parsed rows."""
    yield f"{block.kind} {block.name}"
    for stanza in _KIND_STANZAS[block.kind]:
        if stanza.read is not None:
            value = getattr(block, stanza.keyword.lower())
            if value is not None:
                words = value if isinstance(value, tuple) else (value,)
                yield "  " + " ".join([stanza.keyword, *map(str, words)])
            continue
        parsed = sorted(block.rows.get(stanza.keyword, {}).items())
        parsed = ((i, map(field.format, vals)) for i, vals in parsed if not stanza.sparse or any(vals))
        for idx, row in rows(stanza) if rows else parsed:
            at = f" {' '.join(map(str, idx))} :" if idx else ""
            yield f"  {stanza.keyword}{at} {' '.join(row)}"
    yield "END"


def _matrix_rows(stanza, matrices, word, n, h):
    """A stanza's (indices, words) from its matrix in `matrices`, if any.  The
    legs flatten row-major, indices then p, so a row is a stored row of the
    matrix (p a column leg) or of its transpose, or a piece of one, copied
    into a zero row; `word` formats a scalar."""
    if (m := matrices.get(stanza.keyword)) is None:
        return
    extent = _layout(stanza, n, h)[0]
    length, source = extent[2], m if "p" in stanza.entry[1] else m.transpose()
    rows = map(source.row_items, range(source.rows))
    if source.cols > length:  # an RMATRIX's one column holds every row
        rows = [[] for _ in range(source.cols // length)]
        for j, v in source.row_items(0):
            rows[j // length].append((j % length, v))
    zero = [word(m.field.zero)] * length
    for idx, row in zip(product(*map(range, extent[: len(stanza.index)])), rows):
        if row or not stanza.sparse:
            out = zero.copy()
            for j, v in row:
                out[j] = word(v)
            yield idx, out


def _object_lines(kind, name, field, values, n=None, h=None):
    """Print library data as a block: `values` maps each keyword to a header
    value or to the matrix its rows are read from.  Over GF(p) each distinct
    scalar is formatted once (over Q a Fraction hashes slower than it prints)."""
    headers = {s.keyword.lower(): values.get(s.keyword) for s in _KIND_STANZAS[kind] if s.read}
    word = cache(field.format) if field.characteristic else field.format
    rows = partial(_matrix_rows, matrices=values, word=word, n=n, h=h)
    return _block_lines(field, Block(kind, name, 0, **headers), rows)


def _structure_lines(kind, name, s, antipode):
    """Print a structure; every stanza but ANTIPODE reads the attribute
    named after its keyword."""
    values = {
        stanza.keyword: getattr(s, stanza.keyword.lower())
        for stanza in _KIND_STANZAS[kind]
        if stanza.keyword != "ANTIPODE"
    }
    return _object_lines(kind, name, s.field, {**values, "ANTIPODE": antipode}, s.dim)


def algebra_lines(name, alg, antipode=None):
    return _structure_lines("ALGEBRA", name, alg, antipode)


def coalgebra_lines(name, coalg):
    return _structure_lines("COALGEBRA", name, coalg, None)


def bialgebra_lines(name, h):
    return _structure_lines("BIALGEBRA", name, h, None)


def hopf_lines(name, hopf):
    return _structure_lines("HOPF", name, hopf, hopf.antipode)


def _map_lines(kind, name, piece, acting_name, carrier_name):
    return _object_lines(
        kind, name, piece.field,
        {"ACTING": acting_name, "CARRIER": carrier_name, "MAP": piece.matrix},
        piece.carrier_dim, piece.hom.dim,
    )


def action_lines(name, act, acting_name, carrier_name):
    return _map_lines("ACTION", name, act, acting_name, carrier_name)


def coaction_lines(name, coact, acting_name, carrier_name):
    return _map_lines("COACTION", name, coact, acting_name, carrier_name)


def rmatrix_lines(name, rmatrix, on_name):
    return _object_lines(
        "RMATRIX", name, rmatrix.hom.field, {"ON": on_name, "COEFF": rmatrix.coeffs},
        h=rmatrix.hom.dim,
    )


def form_lines(name, form, on_name):
    return _object_lines(
        "FORM", name, form.hom.field, {"ON": on_name, "COEFF": form.matrix}, h=form.hom.dim
    )


def document_lines(field, block_lines):
    """The lines of a FORMAT 1 document, each without its newline."""
    yield "FORMAT 1"
    yield render_field(field)
    for chunk in block_lines:
        yield from chunk


def render_document(field, block_lines):
    # the final newline joined in, not added to a copy
    return "\n".join([*document_lines(field, block_lines), ""])


def render_matrix_rows(mat):
    """Plain matrix export: one row of scalars per line."""
    stanza = Stanza("ROW", (), index=("n",), length="h", entry=("i", "p"))  # row i, scalar p
    rows = _matrix_rows(stanza, {"ROW": mat}, mat.field.format, mat.rows, mat.cols)
    return "\n".join(" ".join(row) for _, row in rows) + "\n"


def render_parsed(doc):
    """Canonical text for a parsed document; scalars in canonical form,
    stanzas in fixed order, zero structure-constant rows dropped."""
    return render_document(doc.field, [_block_lines(doc.field, b) for b in doc.blocks])


# ---------------------------------------------------------------------------
# catalog export


def catalog_document(identifier, field, param=None):
    """Render a catalog entry in the document format."""
    entry = catalog_entry(identifier)
    args = (field,)
    if entry.param is not None:
        args += (field.coerce(entry.default_param) if param is None else param,)
    built = entry.builder(*args)
    chunks = []
    for kind, name, attributes, references in entry.blocks:
        parts = [getattr(built, a) for a in attributes] or [built]
        # the kind's printer, looked up by name so that wrappers on module names apply
        chunks.append(globals()[f"{kind.lower()}_lines"](name, *parts, *references))
    return render_document(field, chunks)
