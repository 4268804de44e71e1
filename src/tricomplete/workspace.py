"""Line-oriented workspace files: rings, modules, complexes, maps, towers,
metrics.

The format is declarative and hand-authorable; see README for the full
grammar.  Briefly:

    RING p n
    MODULE name j1 j2 ...          # Jordan block sizes; none = zero module
    COMPLEX name
      AT degree modulename
      DIFF degree e11 e12 ...      # row-major entries mod p, to degree+1
    END
    MAP name source target
      AT degree e11 e12 ...
    END
    TOWER name
      PREFIX c1 c2 ...
      CONNECT m1 m2 ...
      TAIL truncation modulename | TAIL constant complexname   # at most one
    END
    METRIC name
      DUAL
      PIECE ray-above <expr> | PIECE ray-below <expr> | PIECE interval <expr> <expr>
    END

Metric piece bounds are integer-linear expressions in the level n, e.g.
"-n", "n+1", "2*n-3".  Level 1 is always the whole category regardless of
the pieces.  This is the trust boundary, so everything is validated on
load: d^2 = 0, R-linearity of every matrix, commutation of chain-map
squares; violations are reported with the offending object and position.
serialize_workspace writes a parsed workspace back, each reference under
the name it was read with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import Matrix
from .rmodule import RModule, RModuleMap, Ring, zero_module
from .complexes import ChainMap, Complex, ValidationError
from .metric import GoodMetric, LinearExpr, standard_metric
from .cauchy import ConstantTail, Tower, TruncationTail


class WorkspaceError(ValueError):
    """Parse or validation failure, with position and object context."""


def parse_linear(text: str) -> LinearExpr:
    """Accepts integer-linear expressions in n: "7", "n", "-n", "2*n",
    "n+1", "-3*n-2" and the like."""
    s = text.replace(" ", "")
    try:
        if "n" not in s:
            return LinearExpr(0, int(s))
        left, _, right = s.partition("n")
        if left in ("", "+"):
            a = 1
        elif left == "-":
            a = -1
        else:
            a = int(left[:-1] if left.endswith("*") else left)
        if right:
            if right[0] not in "+-":
                raise ValueError(right)
            b = int(right)
        else:
            b = 0
        return LinearExpr(a, b)
    except ValueError:
        raise WorkspaceError("cannot parse linear expression %r" % text)


# PIECE keyword -> (GoodMetric piece kind, number of bounds)
_PIECES = {"ray-above": ("above", 1), "ray-below": ("below", 1), "interval": ("interval", 2)}

# TAIL keyword -> (kind of the named object, tail class): the one place that
# maps a keyword to its class; the tail stores the object under the kind's name
_TAILS = {"truncation": ("module", TruncationTail), "constant": ("complex", ConstantTail)}

# kind of a named object -> its Workspace table
_TABLES = {"module": "modules", "complex": "complexes", "map": "maps", "tower": "towers"}


@dataclass
class Workspace:
    ring: Ring
    modules: dict[str, RModule] = field(default_factory=dict)
    complexes: dict[str, Complex] = field(default_factory=dict)
    maps: dict[str, ChainMap] = field(default_factory=dict)
    towers: dict[str, Tower] = field(default_factory=dict)
    metrics: dict[str, GoodMetric] = field(default_factory=dict)

    def get(self, kind: str, name: str, error=WorkspaceError):
        """The module, complex, map or tower of that name; an unknown name
        raises error("unknown KIND 'name'")."""
        table = getattr(self, _TABLES[kind])
        try:
            return table[name]
        except KeyError:
            raise error("unknown %s %r" % (kind, name)) from None

    def metric(self, name: str) -> GoodMetric:
        """Resolve a metric name: custom names first, then standard_metric.
        A custom name is its stored metric; with ":dual" its dual flag flips."""
        base, _, flag = name.partition(":")
        if base in self.metrics and flag in ("", "dual"):
            m = self.metrics[base]
            return GoodMetric(m.name, m.pieces, dual=not m.dual) if flag else m
        return standard_metric(name)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.at = 0

    def error(self, msg: str) -> WorkspaceError:
        return WorkspaceError("line %d: %s" % (self.at, msg))

    def next_tokens(self) -> list[str] | None:
        while self.at < len(self.lines):
            self.at += 1
            toks = self.lines[self.at - 1].split("#", 1)[0].split()
            if toks:
                return toks
        return None

    def block(self, kind: str, name: str, heads: tuple[str, ...]):
        """Yield (HEAD, tokens) for each line of a KIND block up to its END;
        a head outside heads is refused."""
        while True:
            toks = self.next_tokens()
            if toks is None:
                raise self.error("unterminated %s %r" % (kind, name))
            head = toks[0].upper()
            if head == "END":
                return
            if head not in heads:
                raise self.error("unexpected %r inside %s" % (toks[0], kind))
            yield head, toks

    def parse(self) -> Workspace:
        ws: Workspace | None = None
        names: set[str] = set()

        def claim(name: str):
            if name in names:
                raise self.error("duplicate name %r" % name)
            names.add(name)

        while True:
            toks = self.next_tokens()
            if toks is None:
                break
            head = toks[0].upper()
            if head == "RING":
                if ws is not None:
                    raise self.error("RING may only be declared once")
                if len(toks) != 3:
                    raise self.error("RING expects: RING p n")
                try:
                    ws = Workspace(ring=Ring(int(toks[1]), int(toks[2])))
                except ValueError as e:
                    raise self.error(str(e))
                continue
            if ws is None:
                raise self.error("the first declaration must be RING")
            if head == "MODULE":
                if len(toks) < 2:
                    raise self.error("MODULE expects a name")
                claim(toks[1])
                try:
                    ws.modules[toks[1]] = RModule(ws.ring, tuple(int(t) for t in toks[2:]))
                except ValueError as e:
                    raise self.error("module %r: %s" % (toks[1], e))
            elif head in _BLOCKS:
                size, usage, table, build = _BLOCKS[head]
                if len(toks) != size:
                    raise self.error(usage)
                claim(toks[1])
                getattr(ws, table)[toks[1]] = build(self, ws, *toks[1:])
            else:
                raise self.error("unknown declaration %r" % toks[0])
        if ws is None:
            raise WorkspaceError("empty workspace: no RING declaration")
        return ws

    def _matrix(self, entries: list[str], rows: int, cols: int, p: int, what: str) -> Matrix:
        if len(entries) != rows * cols:
            raise self.error("%s expects %d entries (%dx%d), got %d"
                             % (what, rows * cols, rows, cols, len(entries)))
        try:
            vals = [int(e) for e in entries]
        except ValueError:
            raise self.error("%s: entries must be integers" % what)
        return Matrix(np.array(vals, dtype=np.int64).reshape(rows, cols), p)

    def _parse_complex(self, ws: Workspace, name: str) -> Complex:
        comps: dict[int, RModule] = {}
        raw_diffs: dict[int, list[str]] = {}
        for head, toks in self.block("COMPLEX", name, ("AT", "DIFF")):
            if head == "AT":
                if len(toks) != 3:
                    raise self.error("AT expects: AT degree modulename")
                deg = self._int(toks[1], "degree")
                module = ws.get("module", toks[2], self.error)
                if deg in comps:
                    raise self.error("duplicate component at degree %d" % deg)
                comps[deg] = module
            else:
                if len(toks) < 2:
                    raise self.error("DIFF expects: DIFF degree entries...")
                deg = self._int(toks[1], "degree")
                if deg in raw_diffs:
                    raise self.error("duplicate differential at degree %d" % deg)
                raw_diffs[deg] = toks[2:]
        diffs: dict[int, RModuleMap] = {}
        for deg, entries in raw_diffs.items():
            src = comps.get(deg, zero_module(ws.ring))
            tgt = comps.get(deg + 1, zero_module(ws.ring))
            mat = self._matrix(entries, tgt.dim, src.dim, ws.ring.p,
                               "complex %r differential at %d" % (name, deg))
            try:
                diffs[deg] = RModuleMap(src, tgt, mat)
            except ValueError as e:
                raise self.error("complex %r differential at %d: %s" % (name, deg, e))
        try:
            return Complex(ws.ring, comps, diffs)
        except ValidationError as e:
            raise self.error("complex %r: %s" % (name, e))

    def _parse_map(self, ws: Workspace, name: str, src_name: str, tgt_name: str) -> ChainMap:
        src = ws.get("complex", src_name, self.error)
        tgt = ws.get("complex", tgt_name, self.error)
        comps: dict[int, RModuleMap] = {}
        for _, toks in self.block("MAP", name, ("AT",)):
            if len(toks) < 2:
                raise self.error("AT expects: AT degree entries...")
            deg = self._int(toks[1], "degree")
            if deg in comps:
                raise self.error("duplicate component at degree %d" % deg)
            s, t = src.component(deg), tgt.component(deg)
            mat = self._matrix(toks[2:], t.dim, s.dim, ws.ring.p,
                               "map %r component at %d" % (name, deg))
            try:
                comps[deg] = RModuleMap(s, t, mat)
            except ValueError as e:
                raise self.error("map %r component at %d: %s" % (name, deg, e))
        try:
            return ChainMap(src, tgt, comps)
        except ValidationError as e:
            raise self.error("map %r: %s" % (name, e))

    def _parse_tower(self, ws: Workspace, name: str) -> Tower:
        prefix: list[Complex] = []
        maps: list[ChainMap] = []
        tail = None
        for head, toks in self.block("TOWER", name, ("PREFIX", "CONNECT", "TAIL")):
            if head == "PREFIX":
                prefix.extend(ws.get("complex", t, self.error) for t in toks[1:])
            elif head == "CONNECT":
                maps.extend(ws.get("map", t, self.error) for t in toks[1:])
            else:
                if len(toks) != 3:
                    raise self.error("TAIL expects: TAIL truncation|constant name")
                if tail is not None:
                    raise self.error("tower %r takes at most one TAIL" % name)
                kind = toks[1].lower()
                if kind not in _TAILS:
                    raise self.error("unknown tail kind %r" % toks[1])
                what, tail_class = _TAILS[kind]
                tail = tail_class(ws.get(what, toks[2], self.error))
        try:
            return Tower(ws.ring, prefix=prefix, prefix_maps=maps, tail=tail)
        except ValueError as e:
            raise self.error("tower %r: %s" % (name, e))

    def _parse_metric(self, ws: Workspace, name: str) -> GoodMetric:
        dual = False
        pieces: list[tuple] = []
        for head, toks in self.block("METRIC", name, ("DUAL", "PIECE")):
            if head == "DUAL":
                dual = True
                continue
            if len(toks) < 3:
                raise self.error("PIECE expects a kind and bounds")
            keyword = toks[1].lower()
            if keyword not in _PIECES:
                raise self.error("metric %r: unknown piece kind %r" % (name, toks[1]))
            kind, bounds = _PIECES[keyword]
            if len(toks) != 2 + bounds:
                raise self.error("metric %r: PIECE %s expects %s"
                                 % (name, keyword, "one bound" if bounds == 1 else "two bounds"))
            try:
                pieces.append((kind,) + tuple(parse_linear(t) for t in toks[2:]))
            except WorkspaceError as e:
                raise self.error("metric %r: %s" % (name, e))
        return GoodMetric(name, pieces, dual=dual)

    def _int(self, tok: str, what: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise self.error("bad %s %r" % (what, tok))


# declaration -> (header length, usage, Workspace table, block builder)
_BLOCKS = {
    "COMPLEX": (2, "COMPLEX expects a name", "complexes", _Parser._parse_complex),
    "MAP": (4, "MAP expects: MAP name source target", "maps", _Parser._parse_map),
    "TOWER": (2, "TOWER expects a name", "towers", _Parser._parse_tower),
    "METRIC": (2, "METRIC expects a name", "metrics", _Parser._parse_metric),
}


def parse_workspace_text(text: str) -> Workspace:
    return _Parser(text).parse()


def parse_workspace(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workspace_text(fh.read())


# -- serialization -------------------------------------------------------------


def _entries(m: Matrix) -> str:
    return " ".join(str(int(v)) for v in m.a.ravel())


def serialize_workspace(ws: Workspace) -> str:
    """Canonical text form: parse -> serialize -> parse gives equal objects,
    and serializing those again gives the same text.

    The parser is the only producer of a Workspace, and it stores the
    objects it resolves, so each reference (a component, a map end, a
    tower entry, a tail's module or complex) is written with the name it
    was parsed with; an object outside the workspace raises WorkspaceError.
    """
    names = {id(obj): name for table in (ws.modules, ws.complexes, ws.maps)
             for name, obj in table.items()}

    def refs(owner: str, *objs) -> str:
        try:
            return " ".join(names[id(obj)] for obj in objs)
        except KeyError:
            raise WorkspaceError("%s refers to an object outside the workspace" % owner) from None

    tails = {tail_class: (keyword, what) for keyword, (what, tail_class) in _TAILS.items()}
    pieces = {kind: keyword for keyword, (kind, _) in _PIECES.items()}
    out = ["RING %d %d" % (ws.ring.p, ws.ring.n), ""]
    out += [" ".join(["MODULE", name] + [str(j) for j in m.blocks])
            for name, m in sorted(ws.modules.items())] + [""]

    def block(head: str, body: list[str]):
        out.extend([head] + ["  " + line for line in body] + ["END", ""])

    for c, x in sorted(ws.complexes.items()):
        body = ["AT %d %s" % (i, refs("complex %r" % c, x.component(i))) for i in x.degrees]
        body += ["DIFF %d %s" % (i, _entries(d.matrix)) for i, d in sorted(x._diffs.items())]
        block("COMPLEX " + c, body)
    for m, f in sorted(ws.maps.items()):
        block("MAP %s %s" % (m, refs("map %r" % m, f.source, f.target)),
              ["AT %d %s" % (i, _entries(g.matrix)) for i, g in sorted(f._components.items())])
    for t, tower in sorted(ws.towers.items()):
        body = [head + refs("tower %r" % t, *objs) for head, objs in
                (("PREFIX ", tower.prefix), ("CONNECT ", tower.prefix_maps)) if objs]
        if tower.tail is not None:
            keyword, what = tails[type(tower.tail)]
            body.append("TAIL %s %s" % (keyword, refs("tower %r" % t, getattr(tower.tail, what))))
        block("TOWER " + t, body)
    for e, m in sorted(ws.metrics.items()):
        body = ["PIECE %s %s" % (pieces[p[0]], " ".join(str(b) for b in p[1:])) for p in m.pieces]
        block("METRIC " + e, (["DUAL"] if m.dual else []) + body)
    return "\n".join(out).rstrip() + "\n"
