"""Optional libclang frontend (experimental).

Where python3-clang + libclang are installed (the CI clang jobs; not the
default dev container), hfverify can build its `Program` from a real AST
instead of the text scanner: `--frontend libclang --compdb
build/compile_commands.json`. Role annotations are read from the
`annotate` attributes `HF_ROLE_ANNOTATION` emits under Clang, and call
edges from `CALL_EXPR`/`MEMBER_REF_EXPR` cursors, so overload resolution
and receiver typing are exact.

The text frontend stays canonical: it needs no toolchain, parses headers
the compile database never compiles standalone, and is what the fixture
corpus and CI gates run. This module is import-gated — loading it without
libclang raises a clear error instead of breaking the default path. The
ordering rule is syntactic and always uses the text parser's
token model; only confinement and lockorder benefit from AST accuracy,
so those are what CI exercises advisorily with this frontend.
"""

import json
import os
from typing import Optional

from .model import (Call, ClassInfo, Field, Function, Program, ROLE_MACROS,
                    Violation)

_ANNOTATION_TO_ROLE = {
    "hf_event_loop_only": "event_loop",
    "hf_worker_only": "worker",
    "hf_any_thread": "any",
}


def _require_cindex():
    try:
        from clang import cindex  # type: ignore
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise SystemExit(
            "hfverify: --frontend libclang needs the python3-clang package "
            "and libclang; install them (apt-get install python3-clang "
            "libclang-dev) or use the default text frontend") from exc
    return cindex


def parse_tree(root: str, compdb_path: Optional[str]) -> Program:
    cindex = _require_cindex()
    if compdb_path is None:
        compdb_path = os.path.join(root, "build", "compile_commands.json")
    if not os.path.isfile(compdb_path):
        raise SystemExit(f"hfverify: compile database {compdb_path} not "
                         "found (configure with "
                         "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")
    with open(compdb_path, encoding="utf-8") as f:
        entries = json.load(f)
    index = cindex.Index.create()
    program = Program()
    seen_files = set()
    for entry in entries:
        path = os.path.normpath(os.path.join(entry.get("directory", root),
                                             entry["file"]))
        rel = os.path.relpath(path, root)
        if not rel.startswith("src") or rel in seen_files:
            continue
        seen_files.add(rel)
        args = [a for a in entry.get("command", "").split()[1:]
                if not a.endswith(".cpp") and a not in ("-c", "-o")]
        # Drop the object-file operand `-o` pointed at.
        cleaned = []
        skip = False
        for a in args:
            if skip:
                skip = False
                continue
            if a == "-o":
                skip = True
                continue
            cleaned.append(a)
        try:
            tu = index.parse(path, args=cleaned)
        except cindex.TranslationUnitLoadError:
            continue
        _walk(cindex, program, root, tu.cursor)
    return program


def _role_of(cindex, cursor):
    role = None
    blocking = False
    for child in cursor.get_children():
        if child.kind == cindex.CursorKind.ANNOTATE_ATTR:
            if child.spelling in _ANNOTATION_TO_ROLE:
                role = _ANNOTATION_TO_ROLE[child.spelling]
            elif child.spelling == "hf_blocking":
                blocking = True
    return role, blocking


def _walk(cindex, program: Program, root: str, cursor, cls=None) -> None:
    K = cindex.CursorKind
    for child in cursor.get_children():
        loc = child.location
        if loc.file is None:
            continue
        rel = os.path.relpath(str(loc.file), root)
        if rel.startswith(".."):
            continue
        if child.kind in (K.NAMESPACE, K.UNEXPOSED_DECL):
            _walk(cindex, program, root, child, cls)
        elif child.kind in (K.CLASS_DECL, K.STRUCT_DECL) and \
                child.is_definition():
            info = program.classes.setdefault(child.spelling,
                                              ClassInfo(name=child.spelling))
            info.file, info.line = rel, loc.line
            for sub in child.get_children():
                if sub.kind == K.CXX_BASE_SPECIFIER:
                    base = sub.type.spelling.split("::")[-1].split("<")[0]
                    if base not in info.bases:
                        info.bases.append(base)
                elif sub.kind == K.FIELD_DECL:
                    role, _ = _role_of(cindex, sub)
                    type_ids = {t for t in
                                sub.type.spelling.replace("<", " ")
                                .replace(">", " ").replace("::", " ")
                                .replace("*", " ").replace("&", " ").split()}
                    info.fields[sub.spelling] = Field(
                        name=sub.spelling, cls=child.spelling,
                        type_ids=type_ids, role=role, file=rel,
                        line=sub.location.line)
            _walk(cindex, program, root, child, child.spelling)
        elif child.kind in (K.CXX_METHOD, K.FUNCTION_DECL, K.CONSTRUCTOR,
                            K.DESTRUCTOR):
            name = child.spelling
            owner = cls
            sem = child.semantic_parent
            if sem is not None and sem.kind in (K.CLASS_DECL, K.STRUCT_DECL):
                owner = sem.spelling
            qname = f"{owner}::{name}" if owner else name
            role, blocking = _role_of(cindex, child)
            fn = Function(qname=qname, name=name, cls=owner, file=rel,
                          line=loc.line, role=role, blocking=blocking,
                          params=[(p.type.spelling, p.spelling)
                                  for p in child.get_arguments()],
                          has_definition=child.is_definition())
            if child.is_definition():
                _collect_calls(cindex, fn, child)
            program.add_function(fn)


def _collect_calls(cindex, fn: Function, cursor) -> None:
    K = cindex.CursorKind
    idx = 0
    for node in cursor.walk_preorder():
        if node.kind != K.CALL_EXPR or not node.spelling:
            continue
        ref = node.referenced
        qualifier = None
        if ref is not None and ref.semantic_parent is not None and \
                ref.semantic_parent.kind in (K.CLASS_DECL, K.STRUCT_DECL):
            qualifier = ref.semantic_parent.spelling
        idx += 1
        fn.calls.append(Call(name=node.spelling, qualifier=qualifier,
                             receiver=None, line=node.location.line,
                             token_index=idx))
