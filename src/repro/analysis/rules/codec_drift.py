"""Rule: dataclasses and their dict/JSONL/wire codecs stay field-for-field.

The repo carries three hand-maintained serialization paths — dict
codecs (``request_to_dict``/``report_to_dict``/...), JSONL archives
built on them, and wire frames embedding them.  History shows the
failure mode: a new dataclass field (``timings``, ``cached``) lands in
two of the three paths and silently drops on the third.  This rule
closes the loop statically:

* every field of a registered dataclass must appear as a written key
  in its ``*_to_dict`` codec (codecs built on ``dataclasses.asdict``
  are complete by construction);
* its ``*_from_dict`` codec must pass every field to the constructor
  (a ``Cls(**payload)`` splat is complete by construction);
* the wire/archive builders must keep embedding the dict codecs
  (``report_frame`` -> ``report_to_dict`` etc.), so the wire can never
  fork from the archive format.

The registry below names the repo's own types; the rule resolves them
by name wherever they live, so fixture projects (and future moves
between modules) need no configuration.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from ..findings import Finding
from ..project import Project, SourceFile
from ..registry import LintRule, register_rule
from ._ast_util import string_keys_in_dict_literals


@dataclass(frozen=True)
class CodecSpec:
    """One dataclass <-> codec-pair contract."""

    class_name: str
    to_fn: str
    from_fn: str | None
    #: Keys the to-codec may write beyond the fields (envelope metadata).
    extra_keys: frozenset[str] = frozenset()
    #: Name the from-codec constructs (defaults to the dataclass itself).
    constructs: str | None = None


#: The serialization contracts this repository promises.
CODEC_SPECS: tuple[CodecSpec, ...] = (
    CodecSpec(
        "ScheduleRequest",
        "request_to_dict",
        "request_from_dict",
        extra_keys=frozenset({"schema_version"}),
    ),
    CodecSpec(
        "SolveReport",
        "report_to_dict",
        "report_from_dict",
        extra_keys=frozenset({"schema_version", "request_hash"}),
    ),
    CodecSpec(
        "ScheduleResult",
        "result_to_dict",
        "result_from_dict",
        extra_keys=frozenset({"schema_version"}),
    ),
    CodecSpec(
        "SolveOutcome",
        "outcome_record",
        "outcome_from_record",
        extra_keys=frozenset(
            {"schema_version", "kind", "solver", "request", "request_hash"}
        ),
    ),
)

#: Wire/archive builders that must keep embedding the dict codecs.
WIRE_LINKS: tuple[tuple[str, str], ...] = (
    ("report_frame", "report_to_dict"),
    ("submit_frame", "request_to_dict"),
    ("parse_submit_frame", "request_from_dict"),
    ("outcome_record", "report_to_dict"),
    ("outcome_record", "request_to_dict"),
)


def dataclass_fields(cls: ast.ClassDef) -> list[str]:
    """Field names of a dataclass body: annotated, non-ClassVar, public."""
    fields: list[str] = []
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        if stmt.target.id.startswith("_"):
            continue
        annotation = ast.dump(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append(stmt.target.id)
    return fields


def _calls_name(fn: ast.AST, name: str) -> bool:
    """True when *fn* contains a call to (or reference of) *name*."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


def _constructor_calls(fn: ast.AST, class_name: str) -> list[ast.Call]:
    """Every ``ClassName(...)`` call inside *fn*."""
    calls = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = None
        if isinstance(func, ast.Name):
            called = func.id
        elif isinstance(func, ast.Attribute):
            called = func.attr
        if called == class_name:
            calls.append(node)
    return calls


def _uses_asdict(fn: ast.AST) -> bool:
    """True when the codec delegates to ``dataclasses.asdict``."""
    return _calls_name(fn, "asdict")


@register_rule
class CodecDriftRule(LintRule):
    name = "codec-drift"
    description = (
        "dataclass fields missing from their *_to_dict/*_from_dict codecs "
        "or frame builders drifting off the dict codecs"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for spec in CODEC_SPECS:
            yield from self._check_spec(project, spec)
        yield from self._check_wire_links(project)

    def _check_spec(self, project: Project, spec: CodecSpec) -> Iterator[Finding]:
        located = project.find_class(spec.class_name)
        if located is None:
            return  # fixture projects only carry the types they exercise
        cls_sf, cls_node = located
        fields = dataclass_fields(cls_node)
        if not fields:
            return
        yield from self._check_to_codec(project, spec, cls_sf, cls_node, fields)
        yield from self._check_from_codec(project, spec, cls_sf, cls_node, fields)

    def _check_to_codec(
        self,
        project: Project,
        spec: CodecSpec,
        cls_sf: SourceFile,
        cls_node: ast.ClassDef,
        fields: list[str],
    ) -> Iterator[Finding]:
        located = project.find_function(spec.to_fn)
        if located is None:
            yield self.finding(
                cls_sf.path,
                cls_node.lineno,
                cls_node.col_offset,
                f"dataclass {spec.class_name} has no {spec.to_fn}() codec "
                f"in the project",
                hint="restore (or rename in CODEC_SPECS) the to-dict codec",
            )
            return
        fn_sf, fn_node = located
        if _uses_asdict(fn_node):
            return  # asdict() serialises every field by construction
        keys = string_keys_in_dict_literals(fn_node)
        for field in fields:
            if field not in keys:
                yield self.finding(
                    fn_sf.path,
                    fn_node.lineno,
                    fn_node.col_offset,
                    f"{spec.to_fn}() does not write field {field!r} of "
                    f"{spec.class_name}",
                    hint=(
                        f'add "{field}" to the dict literal (every field '
                        f"rides every serialization path)"
                    ),
                )

    def _check_from_codec(
        self,
        project: Project,
        spec: CodecSpec,
        cls_sf: SourceFile,
        cls_node: ast.ClassDef,
        fields: list[str],
    ) -> Iterator[Finding]:
        if spec.from_fn is None:
            return
        located = project.find_function(spec.from_fn)
        if located is None:
            yield self.finding(
                cls_sf.path,
                cls_node.lineno,
                cls_node.col_offset,
                f"dataclass {spec.class_name} has no {spec.from_fn}() codec "
                f"in the project",
                hint="restore (or rename in CODEC_SPECS) the from-dict codec",
            )
            return
        fn_sf, fn_node = located
        constructs = spec.constructs or spec.class_name
        calls = _constructor_calls(fn_node, constructs)
        if not calls:
            yield self.finding(
                fn_sf.path,
                fn_node.lineno,
                fn_node.col_offset,
                f"{spec.from_fn}() never constructs {constructs}",
                hint="the from-codec must rebuild the dataclass",
            )
            return
        # A **payload splat passes everything the payload carries.
        if any(kw.arg is None for call in calls for kw in call.keywords):
            return
        passed = {
            kw.arg for call in calls for kw in call.keywords if kw.arg
        }
        for field in fields:
            if field not in passed:
                yield self.finding(
                    fn_sf.path,
                    fn_node.lineno,
                    fn_node.col_offset,
                    f"{spec.from_fn}() does not pass field {field!r} to "
                    f"{constructs}",
                    hint=(
                        f"pass {field}=payload.get(...) so round-trips "
                        f"preserve it (use .get for back-compat records)"
                    ),
                )

    def _check_wire_links(self, project: Project) -> Iterator[Finding]:
        for builder, codec in WIRE_LINKS:
            located = project.find_function(builder)
            if located is None:
                continue  # fixtures only carry what they exercise
            fn_sf, fn_node = located
            if not _calls_name(fn_node, codec):
                yield self.finding(
                    fn_sf.path,
                    fn_node.lineno,
                    fn_node.col_offset,
                    f"{builder}() no longer embeds {codec}() — the wire "
                    f"format has forked from the dict codec",
                    hint=f"build the payload via {codec}()",
                )
