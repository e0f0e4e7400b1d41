"""Domain schema: concept taxonomy, message type specs, relation rules.

Everything domain-specific is data loaded from one line-oriented spec file
format (grammar documented in the README): concepts and instances, ordered
value scales, message signatures with optional cross-slot constraints,
relation rules over message pairs, and trigger-lemma lines consumed by the
extraction stage. Relation rules and message constraints share a single
condition-atom grammar and a single evaluator.

Most lines of a grown domain are ``instance`` and ``concept`` lines, so each
line is first tried against one whole-line pattern for each of those two
forms (spaces and tabs between tokens). Every other line, and every line
that fails the pattern, goes to the column-tracking cursor, which parses
the remaining statements and reports every syntax error.
"""

from __future__ import annotations

import re
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .corpus import PhraseIndex
from .errors import (CycleInTaxonomy, DslSyntaxError, DuplicateInstance,
                     DuplicateMessageType, ScaleRequired, UnknownConcept,
                     UnknownInstance, UnknownMessageType, UnknownSlot)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INSTANCE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
# Whole instance and concept lines, matching only lines that the cursor
# reads to the same statement: the keyword needs a blank after it, or the
# cursor would read a longer keyword.
_INSTANCE_LINE = re.compile(
    r"[ \t]*instance[ \t]+([A-Za-z_][A-Za-z0-9_-]*)[ \t]*:[ \t]*"
    r"([A-Za-z_][A-Za-z0-9_]*)[ \t]*")
_CONCEPT_LINE = re.compile(
    r"[ \t]*concept[ \t]+([A-Za-z_][A-Za-z0-9_]*)"
    r"(?:[ \t]*<[ \t]*([A-Za-z_][A-Za-z0-9_]*))?[ \t]*")

SYNCHRONIC = "synchronic"
DIACHRONIC = "diachronic"


class Ontology:
    """The concept taxonomy, the instances and the ordered scales. A plain
    class, not a named tuple: its two ``cached_property``s need a
    ``__dict__``."""

    def __init__(self, concepts, parent, instances, ordered_scales):
        self.concepts: frozenset[str] = concepts
        self.parent: dict[str, str] = parent                 # child -> parent
        self.instances: dict[str, str] = instances           # instance -> concept
        # concept -> values, low first
        self.ordered_scales: dict[str, tuple[str, ...]] = ordered_scales

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.concepts, self.parent, self.instances, self.ordered_scales)
                == (other.concepts, other.parent, other.instances,
                    other.ordered_scales))

    @cached_property
    def instance_phrases(self) -> PhraseIndex:
        """Instance surface forms (the name with underscores as spaces),
        indexed for spotting in token sequences; built on first use."""
        return PhraseIndex((i.replace("_", " "), i) for i in self.instances)

    @cached_property
    def ancestors(self) -> dict[str, frozenset[str]]:
        """Each concept's ancestors, itself included; built on first use."""
        out: dict[str, frozenset[str]] = {}
        for concept in self.concepts:
            chain = []
            node: str | None = concept
            while node is not None and node not in out:
                chain.append(node)
                node = self.parent.get(node)
            above = out[node] if node is not None else frozenset()
            for name in reversed(chain):
                above = out[name] = above | {name}
        return out

    def concept_of(self, instance: str) -> str | None:
        return self.instances.get(instance)

    def scale_for(self, concept: str) -> tuple[str, ...] | None:
        """Ordered scale for a concept, inherited from the nearest ancestor."""
        node: str | None = concept
        while node is not None:
            if node in self.ordered_scales:
                return self.ordered_scales[node]
            node = self.parent.get(node)
        return None


def is_subtype(ontology: Ontology, a: str, b: str) -> bool:
    """Reflexive-transitive subtype test over the taxonomy forest."""
    for name in (a, b):
        if name not in ontology.concepts:
            raise UnknownConcept(f"unknown concept {name!r}")
    return b in ontology.ancestors[a]


class ConditionAtom(NamedTuple):
    """One conjunct of a relation rule or message constraint.

    op "eq"/"neq"/"lt"/"gt" compare two slots; "const" pins one slot (named
    by ``side``) to an instance value. "lt"/"gt" carry the ordered scale the
    comparison runs over, resolved when the rule is loaded.
    """

    op: str
    left_slot: str | None = None
    right_slot: str | None = None
    side: str | None = None
    value: str | None = None
    scale: tuple[str, ...] | None = None


def evaluate_atom(atom: ConditionAtom,
                  left_args: dict[str, str | None],
                  right_args: dict[str, str | None]) -> bool:
    """Strict atom evaluation for relation rules: null slots never match."""
    if atom.op == "const":
        args = left_args if atom.side == "left" else right_args
        slot = atom.left_slot if atom.side == "left" else atom.right_slot
        return args.get(slot) is not None and args.get(slot) == atom.value
    lv = left_args.get(atom.left_slot)
    rv = right_args.get(atom.right_slot)
    if lv is None or rv is None:
        return False
    if atom.op == "eq":
        return lv == rv
    if atom.op == "neq":
        return lv != rv
    if lv not in atom.scale or rv not in atom.scale:
        return False
    if atom.op == "lt":
        return atom.scale.index(lv) < atom.scale.index(rv)
    if atom.op == "gt":
        return atom.scale.index(lv) > atom.scale.index(rv)
    raise ValueError(f"bad atom op {atom.op!r}")


def constraint_satisfied(atom: ConditionAtom, args: dict[str, str | None]) -> bool:
    """Message constraints are vacuous on unfilled slots.

    A constraint only rejects a message when every slot it names is filled
    and the comparison fails; extraction may legitimately leave slots null.
    """
    slots = [s for s in (atom.left_slot, atom.right_slot) if s is not None]
    if any(args.get(s) is None for s in slots):
        return True
    return evaluate_atom(atom, args, args)


class MessageTypeSpec(NamedTuple):
    name: str
    slots: tuple[tuple[str, str], ...]             # (slot_name, concept)
    constraints: tuple[ConditionAtom, ...] = ()

    def slot_names(self) -> list[str]:
        return [s for s, _ in self.slots]

    def concept_for(self, slot: str) -> str:
        for s, c in self.slots:
            if s == slot:
                return c
        raise KeyError(slot)


class RelationSpec(NamedTuple):
    name: str
    axis: str                                      # synchronic | diachronic
    left_type: str
    right_type: str
    conditions: tuple[ConditionAtom, ...] = ()
    distance: tuple[str, int] | None = None        # ("==", k) | (">=", k)
    symmetric: bool = False


class Statement(NamedTuple):
    kind: str     # concept | instance | scale | message | relation | trigger
    line: int
    data: dict


# ---------------------------------------------------------------------------
# Line parser

class _Cursor:
    """Single-line scanner that reports 1-based columns on error."""

    def __init__(self, text: str, path: str, line: int):
        self.text = text
        self.pos = 0
        self.path = path
        self.line = line

    def error(self, msg: str, pos: int | None = None):
        raise DslSyntaxError(msg, self.path, self.line,
                             (self.pos if pos is None else pos) + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect_end(self):
        if not self.at_end():
            self.error(f"unexpected trailing input {self.text[self.pos:].strip()!r}")

    def try_literal(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect_literal(self, literal: str):
        if not self.try_literal(literal):
            self.error(f"expected {literal!r}")

    def name(self, what: str = "name", pattern: re.Pattern = _NAME_RE) -> str:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            self.error(f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def instance_name(self, what: str = "instance name") -> str:
        return self.name(what, _INSTANCE_RE)

    def quoted(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != '"':
            self.error("expected quoted value")
        end = self.text.find('"', self.pos + 1)
        if end < 0:
            self.error("unterminated quote")
        value = self.text[self.pos + 1:end]
        self.pos = end + 1
        return value

    def integer(self) -> int:
        self.skip_ws()
        m = re.compile(r"\d+").match(self.text, self.pos)
        if not m:
            self.error("expected integer")
        self.pos = m.end()
        return int(m.group(0))


def _parse_slot_ref(cur: _Cursor) -> tuple[str | None, str]:
    """A slot reference: ``left.slot``, ``right.slot`` or a bare slot name."""
    cur.skip_ws()
    start = cur.pos
    name = cur.name("slot reference")
    if name in ("left", "right") and cur.try_literal("."):
        return name, cur.name("slot name")
    if name in ("left", "right"):
        cur.error("expected '.' after side qualifier", start)
    return None, name


def _parse_atoms(cur: _Cursor) -> list[dict]:
    atoms = []
    while True:
        side_l, slot_l = _parse_slot_ref(cur)
        cur.skip_ws()
        op_pos = cur.pos
        op = None
        for text, tag in (("==", "eq"), ("!=", "neq"), ("<", "lt"), (">", "gt")):
            if cur.try_literal(text):
                op = tag
                break
        if op is None:
            cur.error("expected one of ==, !=, <, >", op_pos)
        cur.skip_ws()
        if cur.pos < len(cur.text) and cur.text[cur.pos] == '"':
            if op != "eq":
                cur.error("constant comparisons support == only", op_pos)
            atoms.append({"op": "const", "side": side_l, "slot": slot_l,
                          "value": cur.quoted()})
        else:
            side_r, slot_r = _parse_slot_ref(cur)
            atoms.append({"op": op, "left": (side_l, slot_l),
                          "right": (side_r, slot_r)})
        if not cur.try_literal("&&"):
            break
    return atoms


def _parse_line(line: str, ln: int, path: str) -> Statement | None:
    m = _INSTANCE_LINE.fullmatch(line)
    if m:
        return Statement("instance", ln, {"name": m[1], "concept": m[2]})
    m = _CONCEPT_LINE.fullmatch(line)
    if m:
        return Statement("concept", ln, {"name": m[1], "parent": m[2]})
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    cur = _Cursor(line, path, ln)
    cur.skip_ws()
    keyword = cur.name("statement keyword")

    if keyword == "concept":
        name = cur.name("concept name")
        parent = None
        if cur.try_literal("<"):
            parent = cur.name("parent concept")
        cur.expect_end()
        return Statement("concept", ln, {"name": name, "parent": parent})

    if keyword == "instance":
        name = cur.instance_name()
        cur.expect_literal(":")
        concept = cur.name("concept name")
        cur.expect_end()
        return Statement("instance", ln, {"name": name, "concept": concept})

    if keyword == "scale":
        concept = cur.name("concept name")
        cur.expect_literal("=")
        values = [cur.instance_name("scale value")]
        while cur.try_literal("<"):
            values.append(cur.instance_name("scale value"))
        cur.expect_end()
        return Statement("scale", ln, {"concept": concept, "values": values})

    if keyword == "message":
        name = cur.name("message type name")
        cur.expect_literal("(")
        slots = []
        if not cur.try_literal(")"):
            while True:
                slot = cur.name("slot name")
                cur.expect_literal(":")
                concept = cur.name("concept name")
                slots.append((slot, concept))
                if cur.try_literal(")"):
                    break
                cur.expect_literal(",")
        atoms = _parse_atoms(cur) if cur.try_literal("where") else []
        cur.expect_end()
        return Statement("message", ln, {"name": name, "slots": slots,
                                         "atoms": atoms})

    if keyword == "relation":
        name = cur.name("relation name")
        axis = left = right = None
        distance = None
        symmetric = False
        while True:
            cur.skip_ws()
            pos = cur.pos
            if cur.at_end():
                break
            if cur.try_literal("where"):
                cur.pos = pos
                break
            key = cur.name("relation property")
            if key == "axis":
                cur.expect_literal("=")
                axis = cur.name("axis")
                if axis not in (SYNCHRONIC, DIACHRONIC):
                    cur.error(f"axis must be {SYNCHRONIC} or {DIACHRONIC}", pos)
            elif key == "left":
                cur.expect_literal("=")
                left = cur.name("message type")
            elif key == "right":
                cur.expect_literal("=")
                right = cur.name("message type")
            elif key == "distance":
                if cur.try_literal(">="):
                    distance = (">=", cur.integer())
                elif cur.try_literal("=="):
                    distance = ("==", cur.integer())
                else:
                    cur.error("expected distance==k or distance>=k", pos)
            elif key == "symmetric":
                symmetric = True
            else:
                cur.error(f"unknown relation property {key!r}", pos)
        atoms = _parse_atoms(cur) if cur.try_literal("where") else []
        cur.expect_end()
        for label, value in (("axis", axis), ("left", left), ("right", right)):
            if value is None:
                cur.error(f"relation {name!r} is missing {label}=", 0)
        return Statement("relation", ln, {
            "name": name, "axis": axis, "left": left, "right": right,
            "distance": distance, "symmetric": symmetric, "atoms": atoms})

    if keyword == "trigger":
        msg_type = cur.name("message type")
        cur.expect_literal("on")
        cur.expect_literal("[")
        lemmas = [cur.instance_name("lemma")]
        while cur.try_literal(","):
            lemmas.append(cur.instance_name("lemma"))
        cur.expect_literal("]")
        requires: list[str] = []
        if cur.try_literal("requires"):
            cur.expect_literal("[")
            requires.append(cur.name("NE label"))
            while cur.try_literal(","):
                requires.append(cur.name("NE label"))
            cur.expect_literal("]")
        cur.expect_end()
        return Statement("trigger", ln, {"msg_type": msg_type, "lemmas": lemmas,
                                         "requires": requires})

    cur.error(f"unknown statement {keyword!r}", 0)
    return None


def parse_spec_file(path: str | Path) -> list[Statement]:
    """Parse a spec file into raw statements (no semantic validation)."""
    statements = []
    name = str(path)
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            stmt = _parse_line(raw.rstrip("\n"), ln, name)
            if stmt is not None:
                statements.append(stmt)
    return statements


class ParsedSpec:
    """A spec file's statements, filed by kind, and the path its errors name.

    Every loader accepts one in place of a path, so one parse can serve
    them all, and each reads only its own kind. A plain class, under the
    records rule in README's Layout section.
    """

    __slots__ = ("path", "_by_kind")

    def __init__(self, path: str | Path):
        self.path = str(path)
        self._by_kind: dict[str, list[Statement]] = {}
        for st in parse_spec_file(path):
            self._by_kind.setdefault(st.kind, []).append(st)

    @classmethod
    def of(cls, spec: str | Path | ParsedSpec) -> ParsedSpec:
        """``spec`` itself, or the parse of the file it names."""
        return spec if isinstance(spec, ParsedSpec) else cls(spec)

    def statements(self, kind: str) -> list[Statement]:
        """The statements of one kind, in file order."""
        return self._by_kind.get(kind, [])


# ---------------------------------------------------------------------------
# Loaders

def load_ontology(spec: str | Path | ParsedSpec) -> Ontology:
    """Build the taxonomy/instances/scales from a spec file.

    Statements other than concept/instance/scale are ignored, so a single
    combined domain file can serve every loader. Those three kinds may come
    in any order, and a parent concept may follow its child.
    """
    spec = ParsedSpec.of(spec)
    path = spec.path
    concepts: dict[str, int] = {}
    parent: dict[str, str] = {}
    for st in spec.statements("concept"):
        name = st.data["name"]
        if name in concepts:
            raise DslSyntaxError(f"concept {name!r} redeclared", path, st.line)
        concepts[name] = st.line
        if st.data["parent"] is not None:
            parent[name] = st.data["parent"]
    for child, par in parent.items():
        if par not in concepts:
            raise UnknownConcept(f"unknown parent concept {par!r}", path,
                                 concepts[child])
    for start in concepts:
        seen = {start}
        node = start
        while node in parent:
            node = parent[node]
            if node in seen:
                raise CycleInTaxonomy(
                    f"taxonomy cycle through {node!r}", path, concepts[start])
            seen.add(node)

    instances: dict[str, str] = {}
    for st in spec.statements("instance"):
        name, concept = st.data["name"], st.data["concept"]
        if name in instances:
            raise DuplicateInstance(f"instance {name!r} redeclared", path, st.line)
        if concept not in concepts:
            raise UnknownConcept(
                f"instance {name!r} names unknown concept {concept!r}", path, st.line)
        instances[name] = concept

    scales: dict[str, tuple[str, ...]] = {}
    ontology = Ontology(concepts=frozenset(concepts), parent=parent,
                        instances=instances, ordered_scales=scales)
    for st in spec.statements("scale"):
        concept, values = st.data["concept"], st.data["values"]
        if concept not in concepts:
            raise UnknownConcept(f"scale names unknown concept {concept!r}",
                                 path, st.line)
        if concept in scales:
            raise DslSyntaxError(f"scale for {concept!r} redeclared", path, st.line)
        if len(set(values)) != len(values):
            raise DslSyntaxError("scale values must be distinct", path, st.line)
        for v in values:
            got = instances.get(v)
            if got is None:
                raise UnknownInstance(f"scale value {v!r} is not an instance",
                                      path, st.line)
            if not is_subtype(ontology, got, concept):
                raise UnknownInstance(
                    f"scale value {v!r} is not an instance of {concept!r}",
                    path, st.line)
        scales[concept] = tuple(values)
    return ontology


def _resolve_atom(raw: dict, left_spec: MessageTypeSpec, right_spec: MessageTypeSpec,
                  ontology: Ontology, path: str, line: int,
                  bare_side: str | None = None) -> ConditionAtom:
    """Validate a raw parsed atom against the participating message specs.

    ``bare_side`` is set when the atom comes from a single-message context
    (message constraints): references must be bare and both bind that side.
    """
    def resolve_ref(ref: tuple[str | None, str]) -> tuple[str, str]:
        side, slot = ref
        if bare_side is not None:
            if side is not None:
                raise DslSyntaxError(
                    "message constraints use bare slot names", path, line)
            side = bare_side
        elif side is None:
            raise DslSyntaxError(
                f"relation conditions must qualify {slot!r} with left./right.",
                path, line)
        spec = left_spec if side == "left" else right_spec
        if slot not in spec.slot_names():
            raise UnknownSlot(
                f"message type {spec.name!r} has no slot {slot!r}", path, line)
        return side, slot

    if raw["op"] == "const":
        side, slot = resolve_ref((raw["side"], raw["slot"]))
        if raw["value"] not in ontology.instances:
            raise UnknownInstance(
                f"constant {raw['value']!r} is not an ontology instance",
                path, line)
        return ConditionAtom(
            op="const", side=side, value=raw["value"],
            left_slot=slot if side == "left" else None,
            right_slot=slot if side == "right" else None)

    (lside, lslot) = resolve_ref(raw["left"])
    (rside, rslot) = resolve_ref(raw["right"])
    op = raw["op"]
    if bare_side is None and lside == rside:
        raise DslSyntaxError(
            "relation conditions compare left.* against right.*", path, line)
    if bare_side is None and lside == "right":
        # normalize so left_slot always refers to the left message;
        # ordered comparisons flip with the swap
        lslot, rslot = rslot, lslot
        op = {"lt": "gt", "gt": "lt"}.get(op, op)

    scale = None
    if op in ("lt", "gt"):
        lc = left_spec.concept_for(lslot)
        rc = right_spec.concept_for(rslot)
        lscale = ontology.scale_for(lc)
        rscale = ontology.scale_for(rc)
        if lscale is None or rscale is None:
            missing = lc if lscale is None else rc
            raise ScaleRequired(
                f"ordered comparison needs a scale on concept {missing!r}",
                path, line)
        if lscale != rscale:
            raise ScaleRequired(
                f"slots {lslot!r} and {rslot!r} are on different scales",
                path, line)
        scale = lscale
    return ConditionAtom(op=op, left_slot=lslot, right_slot=rslot, scale=scale)


def load_message_specs(spec: str | Path | ParsedSpec,
                       ontology: Ontology) -> list[MessageTypeSpec]:
    spec = ParsedSpec.of(spec)
    path = spec.path
    specs: dict[str, MessageTypeSpec] = {}
    for st in spec.statements("message"):
        name = st.data["name"]
        if name in specs:
            raise DuplicateMessageType(f"message type {name!r} redeclared",
                                       path, st.line)
        slots = st.data["slots"]
        seen = set()
        for slot, concept in slots:
            if slot in seen:
                raise DslSyntaxError(f"duplicate slot {slot!r}", path, st.line)
            seen.add(slot)
            if concept not in ontology.concepts:
                raise UnknownConcept(
                    f"slot {slot!r} names unknown concept {concept!r}",
                    path, st.line)
        partial = MessageTypeSpec(name=name, slots=tuple(slots))
        constraints = tuple(
            _resolve_atom(raw, partial, partial, ontology, path, st.line,
                          bare_side="left")
            for raw in st.data["atoms"])
        specs[name] = MessageTypeSpec(name=name, slots=tuple(slots),
                                      constraints=constraints)
    return list(specs.values())


def load_relation_specs(spec: str | Path | ParsedSpec,
                        message_specs: list[MessageTypeSpec],
                        ontology: Ontology) -> list[RelationSpec]:
    spec = ParsedSpec.of(spec)
    path = spec.path
    by_name = {m.name: m for m in message_specs}
    specs: list[RelationSpec] = []
    for st in spec.statements("relation"):
        d = st.data
        for key in ("left", "right"):
            if d[key] not in by_name:
                raise UnknownMessageType(
                    f"relation {d['name']!r} references unknown message type "
                    f"{d[key]!r}", path, st.line)
        if d["axis"] == SYNCHRONIC and d["distance"] is not None:
            raise DslSyntaxError(
                "synchronic relations take no distance constraint", path, st.line)
        if d["axis"] == DIACHRONIC and d["symmetric"]:
            raise DslSyntaxError(
                "diachronic relations cannot be symmetric", path, st.line)
        left_spec, right_spec = by_name[d["left"]], by_name[d["right"]]
        conditions = tuple(
            _resolve_atom(raw, left_spec, right_spec, ontology, path, st.line)
            for raw in d["atoms"])
        specs.append(RelationSpec(
            name=d["name"], axis=d["axis"], left_type=d["left"],
            right_type=d["right"], conditions=conditions,
            distance=d["distance"], symmetric=d["symmetric"]))
    return specs

