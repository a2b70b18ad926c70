"""hfverify's canonical text frontend.

Parses C++ sources with a purpose-built scanner (no compiler needed) into the
`model.Program` the rules consume: classes with their base lists and fields,
functions with their role annotations and bodies, call sites with receiver
hints, `MutexLock` acquisitions, blocking primitives, and waiver comments.

It is deliberately not a full C++ parser. It understands the subset this
codebase (and the fixture corpus) is written in — declarations, member and
free function definitions, constructor init lists, template prefixes — and
skips what it cannot classify rather than failing. The libclang frontend
(`clang_frontend.py`) produces the same model from a real AST where libclang
is installed; CI runs both, local runs need only this one.
"""

import os
import re
from typing import List, Optional, Set, Tuple

from . import cpp_lexer as lx
from .model import (BLOCKING_MACRO, Call, ClassInfo, Field, Function,
                    LockAcquisition, Program, ROLE_MACROS, Waiver)

KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default", "return",
    "break", "continue", "goto", "sizeof", "alignof", "decltype", "noexcept",
    "new", "delete", "throw", "try", "catch", "static_cast", "const_cast",
    "dynamic_cast", "reinterpret_cast", "co_await", "co_return", "co_yield",
    "this",
}
TYPE_NOISE = {
    "const", "constexpr", "static", "mutable", "inline", "volatile",
    "unsigned", "signed", "long", "short", "int", "char", "bool", "void",
    "float", "double", "auto", "std", "struct", "class", "enum", "typename",
    "explicit", "virtual", "friend", "extern", "register", "thread_local",
    "override", "final", "noexcept",
}
SKIP_TO_SEMI = {"using", "typedef", "static_assert", "friend", "extern",
                "goto"}
_FILE_IO_CALLS = {"fopen", "freopen", "fwrite", "fread", "fflush", "fclose",
                  "fseek", "ftell", "fgetc", "fputc", "fputs", "fgets",
                  "rename", "remove"}
_FILE_IO_TYPES = {"ofstream", "ifstream", "fstream"}
_SLEEP_CALLS = {"sleep_for", "sleep_until"}
# Socket syscalls that park the calling thread until the kernel has news:
# connection handshakes, accept queues, readiness waits. Flagged on
# event-loop paths like sleeps are — an event loop that blocks in connect()
# freezes every connection it multiplexes (the lock-held-connect bug of the
# retired thread-per-connection backend, found the hard way). Non-blocking
# uses (O_NONBLOCK sockets, the loop's own bounded epoll_wait) carry
# allow-blocking waivers naming the bound.
_SOCKET_WAIT_CALLS = {"connect", "accept", "accept4", "poll", "select",
                      "epoll_wait", "epoll_pwait"}

_WAIVER_RE = re.compile(
    r"hfverify:\s*allow-(blocking|role|ordering|lockorder)"
    r"\(([^)]*)\)\s*:?\s*(.*)")


def _is_macro(tok: lx.Token) -> bool:
    return tok.kind == lx.ID and tok.text.startswith("HF_")


class FileParser:
    def __init__(self, rel: str, text: str, program: Program) -> None:
        self.rel = rel
        self.program = program
        self.tokens, self.comments = lx.lex(text)
        self._code_lines = {t.line for t in self.tokens}
        self._collect_waivers()

    # -- waivers ------------------------------------------------------------
    def _collect_waivers(self) -> None:
        for line, body in self.comments:
            m = _WAIVER_RE.search(body)
            if not m:
                continue
            target = line
            if line not in self._code_lines:
                # Comment stands alone: applies to the next line with code.
                later = [ln for ln in self._code_lines if ln > line]
                if later:
                    target = min(later)
            self.program.waivers.append(Waiver(
                kind=m.group(1), tag=m.group(2).strip(),
                reason=m.group(3).strip(), file=self.rel, line=target,
                comment_line=line))

    # -- declaration scopes -------------------------------------------------
    def parse(self) -> None:
        self._parse_scope(0, len(self.tokens), None)

    def _skip_template_prefix(self, i: int, end: int) -> int:
        if i < end and self.tokens[i].text == "template":
            i += 1
            if i < end and self.tokens[i].text == "<":
                depth = 0
                while i < end:
                    t = self.tokens[i].text
                    if t == "<":
                        depth += 1
                    elif t == ">":
                        depth -= 1
                        if depth == 0:
                            return i + 1
                    elif t == ">>":
                        depth -= 2
                        if depth <= 0:
                            return i + 1
                    i += 1
        return i

    def _parse_scope(self, i: int, end: int, cls: Optional[str]) -> None:
        toks = self.tokens
        while i < end:
            t = toks[i]
            if t.text == ";":
                i += 1
                continue
            if t.text in ("public", "private", "protected") and \
                    i + 1 < end and toks[i + 1].text == ":":
                i += 2
                continue
            if t.text == "template":
                j = self._skip_template_prefix(i, end)
                if j > i:
                    i = j
                    continue
            if t.text == "namespace":
                i += 1
                while i < end and toks[i].text != "{" and toks[i].text != ";":
                    i += 1
                if i < end and toks[i].text == "{":
                    close = lx.match_forward(toks, i, "{", "}")
                    self._parse_scope(i + 1, close, cls)
                    i = close + 1
                else:
                    i += 1
                continue
            if t.text == "enum":
                while i < end and toks[i].text not in ("{", ";"):
                    i += 1
                if i < end and toks[i].text == "{":
                    i = lx.match_forward(toks, i, "{", "}") + 1
                continue
            if t.text in SKIP_TO_SEMI:
                while i < end and toks[i].text != ";":
                    if toks[i].text == "{":
                        i = lx.match_forward(toks, i, "{", "}")
                    i += 1
                continue
            if t.text in ("class", "struct") and self._looks_like_class(i, end):
                i = self._parse_class(i, end)
                continue
            i = self._parse_declaration(i, end, cls)

    def _looks_like_class(self, i: int, end: int) -> bool:
        """True for a class *definition* (reaches `{` before `;` or `(`)."""
        j = i + 1
        while j < end:
            t = self.tokens[j].text
            if t == "{":
                return True
            if t in (";", "(", "="):
                return False
            j += 1
        return False

    def _parse_class(self, i: int, end: int) -> int:
        toks = self.tokens
        line = toks[i].line
        i += 1
        # Skip attribute-like macros (HF_CAPABILITY("mutex")), alignas, [[..]].
        name = None
        while i < end and toks[i].text != "{":
            t = toks[i]
            if t.kind == lx.ID and i + 1 < end and toks[i + 1].text == "(":
                i = lx.match_forward(toks, i + 1, "(", ")") + 1
                continue
            if t.kind == lx.ID and t.text not in ("final",):
                name = t.text
                i += 1
                break
            i += 1
        bases: List[str] = []
        while i < end and toks[i].text != "{":
            if toks[i].text == ":":
                i += 1
                while i < end and toks[i].text != "{":
                    tk = toks[i]
                    if tk.kind == lx.ID and tk.text not in (
                            "public", "protected", "private", "virtual",
                            "std"):
                        # Base name: last id of a possibly qualified name,
                        # before any template args.
                        if i + 1 < end and toks[i + 1].text == "::":
                            i += 2
                            continue
                        bases.append(tk.text)
                        # Skip template argument list if present.
                        if i + 1 < end and toks[i + 1].text == "<":
                            depth = 0
                            while i + 1 < end:
                                i += 1
                                if toks[i].text == "<":
                                    depth += 1
                                elif toks[i].text == ">":
                                    depth -= 1
                                    if depth == 0:
                                        break
                    i += 1
                break
            i += 1
        if i >= end or toks[i].text != "{":
            return i + 1
        close = lx.match_forward(toks, i, "{", "}")
        if name is not None:
            info = self.program.classes.setdefault(name, ClassInfo(name=name))
            info.bases = sorted(set(info.bases) | set(bases))
            info.file, info.line = self.rel, line
            self._parse_scope(i + 1, close, name)
        return close + 1

    # -- declarations and definitions ---------------------------------------
    def _parse_declaration(self, i: int, end: int, cls: Optional[str]) -> int:
        """Parse one declaration starting at i; returns the next index."""
        toks = self.tokens
        decl_start = i
        paren_open = paren_close = None
        top_eq = None
        while i < end:
            t = toks[i].text
            if t == "(" and paren_open is None:
                if i > decl_start and toks[i - 1].kind == lx.ID and \
                        not _is_macro(toks[i - 1]):
                    paren_open = i
                    paren_close = lx.match_forward(toks, i, "(", ")")
                    i = paren_close + 1
                    continue
                i = lx.match_forward(toks, i, "(", ")") + 1
                continue
            if t == "(":
                i = lx.match_forward(toks, i, "(", ")") + 1
                continue
            if t == "[":
                i = lx.match_forward(toks, i, "[", "]") + 1
                continue
            if t == "=" and top_eq is None:
                top_eq = i
                i += 1
                continue
            if t == ";":
                self._finish_declaration(decl_start, i, paren_open,
                                         paren_close, top_eq, None, cls)
                return i + 1
            if t == "{":
                body_close = lx.match_forward(toks, i, "{", "}")
                is_fn = (paren_open is not None and top_eq is None)
                if is_fn:
                    self._finish_declaration(decl_start, i, paren_open,
                                             paren_close, top_eq,
                                             (i, body_close), cls)
                    # `void f() {}` needs no trailing `;`.
                    return body_close + 1
                # Brace initializer: keep scanning for the `;`.
                i = body_close + 1
                continue
            i += 1
        return end

    def _finish_declaration(self, start: int, stop: int,
                            paren_open: Optional[int],
                            paren_close: Optional[int],
                            top_eq: Optional[int],
                            body: Optional[Tuple[int, int]],
                            cls: Optional[str]) -> None:
        toks = self.tokens
        decl = toks[start:stop]
        role, blocking = self._annotations(decl)
        if paren_open is not None and (top_eq is None or top_eq > paren_open):
            # Function declaration or definition.
            name_toks = self._name_before(paren_open)
            if not name_toks:
                return
            name = name_toks[-1]
            qual: Optional[str] = cls
            if len(name_toks) >= 2:
                qual = name_toks[-2]
            qname = f"{qual}::{name}" if qual else name
            fn = Function(qname=qname, name=name, cls=qual, file=self.rel,
                          line=toks[start].line, role=role, blocking=blocking,
                          params=self._params(paren_open, paren_close),
                          has_definition=body is not None)
            if body is not None:
                fn.body_tokens = toks[body[0] + 1:body[1]]
                self._scan_body(fn)
            self.program.add_function(fn)
            return
        if cls is None:
            return
        # Field declaration at class scope.
        field = self._field_from(decl, role)
        if field is not None:
            field.cls = cls
            field.file = self.rel
            self.program.classes.setdefault(
                cls, ClassInfo(name=cls)).fields[field.name] = field

    def _annotations(self, decl: List[lx.Token]) -> Tuple[Optional[str], bool]:
        role = None
        blocking = False
        for t in decl:
            if t.kind != lx.ID:
                continue
            if t.text in ROLE_MACROS:
                role = ROLE_MACROS[t.text]
            elif t.text == BLOCKING_MACRO:
                blocking = True
        return role, blocking

    def _name_before(self, paren_open: int) -> List[str]:
        """Identifier chain directly before `(`: ["Cls", "name"] or ["name"]."""
        toks = self.tokens
        out: List[str] = []
        i = paren_open - 1
        if i >= 0 and toks[i].kind == lx.ID:
            out.append(toks[i].text)
            i -= 1
            if i >= 0 and toks[i].text == "~":
                out[-1] = "~" + out[-1]
                i -= 1
            while i - 1 >= 0 and toks[i].text == "::" and \
                    toks[i - 1].kind == lx.ID:
                out.append(toks[i - 1].text)
                i -= 2
        out.reverse()
        return out

    def _params(self, paren_open: Optional[int],
                paren_close: Optional[int]) -> List[Tuple[str, str]]:
        if paren_open is None or paren_close is None:
            return []
        toks = self.tokens[paren_open + 1:paren_close]
        params: List[Tuple[str, str]] = []
        depth = 0
        group: List[lx.Token] = []
        for t in toks + [lx.Token(lx.PUNCT, ",", 0)]:
            if t.text in ("(", "<", "[", "{"):
                depth += 1
            elif t.text in (")", ">", "]", "}"):
                depth -= 1
            if t.text == "," and depth <= 0:
                ids = [g.text for g in group if g.kind == lx.ID]
                eq = next((k for k, g in enumerate(group) if g.text == "="),
                          None)
                if eq is not None:
                    ids = [g.text for g in group[:eq] if g.kind == lx.ID]
                if len(ids) >= 2:
                    params.append((" ".join(ids[:-1]), ids[-1]))
                elif len(ids) == 1:
                    params.append((ids[0], ""))
                group = []
            else:
                group.append(t)
        return params

    def _field_from(self, decl: List[lx.Token],
                    role: Optional[str]) -> Optional[Field]:
        # Drop everything from a top-level `=` (default member init).
        depth = 0
        cut = len(decl)
        for k, t in enumerate(decl):
            if t.text in ("(", "[", "{", "<"):
                depth += 1
            elif t.text in (")", "]", "}", ">"):
                depth -= 1
            elif t.text == "=" and depth <= 0:
                cut = k
                break
        toks = decl[:cut]
        # Drop trailing annotation-macro calls: HF_GUARDED_BY(mu_) etc.
        out: List[lx.Token] = []
        k = 0
        while k < len(toks):
            t = toks[k]
            if _is_macro(t) and k + 1 < len(toks) and toks[k + 1].text == "(":
                close = 1
                j = k + 2
                while j < len(toks) and close > 0:
                    if toks[j].text == "(":
                        close += 1
                    elif toks[j].text == ")":
                        close -= 1
                    j += 1
                k = j
                continue
            if _is_macro(t):
                k += 1
                continue
            out.append(t)
            k += 1
        ids = [t for t in out if t.kind == lx.ID and t.text not in TYPE_NOISE]
        if len(ids) < 2:
            return None
        name = ids[-1].text
        type_ids = {t.text for t in ids[:-1]}
        return Field(name=name, cls="", type_ids=type_ids, role=role,
                     line=ids[-1].line)

    # -- function bodies ----------------------------------------------------
    def _scan_body(self, fn: Function) -> None:
        toks = fn.body_tokens
        depth = 0
        for i, t in enumerate(toks):
            if t.text == "{":
                depth += 1
                continue
            if t.text == "}":
                depth -= 1
                continue
            if t.kind != lx.ID:
                continue
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if t.text == "MutexLock" and i + 2 < len(toks) and \
                    toks[i + 1].kind == lx.ID and toks[i + 2].text == "(":
                close = lx.match_forward(toks, i + 2, "(", ")")
                expr = tuple(x.text for x in toks[i + 3:close])
                fn.locks.append(LockAcquisition(
                    expr_tokens=expr, line=t.line, depth=depth,
                    token_index=i))
                continue
            if t.text in _FILE_IO_TYPES:
                fn.blocking_ops.append(("file-io", t.line))
                continue
            if nxt != "(" or t.text in KEYWORDS or t.text in TYPE_NOISE:
                continue
            prev = toks[i - 1] if i > 0 else None
            if prev is not None and (prev.kind == lx.ID or
                                     prev.text in (">", "*", "&", "~")):
                continue  # declarator (`MutexLock lock(...)`, `T x(...)`)
            receiver = qualifier = None
            if prev is not None and prev.text in (".", "->"):
                back = toks[i - 2] if i >= 2 else None
                if back is not None and back.kind == lx.ID:
                    receiver = back.text
                elif back is not None and back.text in (")", "]"):
                    receiver = "<expr>"
            elif prev is not None and prev.text == "::":
                back = toks[i - 2] if i >= 2 else None
                if back is not None and back.kind == lx.ID:
                    qualifier = back.text
                else:
                    qualifier = "::"  # `::shutdown(fd, ...)`: global/libc
            if t.text in _SLEEP_CALLS and qualifier == "this_thread":
                fn.blocking_ops.append(("sleep", t.line))
                continue
            if t.text in _FILE_IO_CALLS and qualifier in (None, "std"):
                fn.blocking_ops.append(("file-io", t.line))
                continue
            if t.text in _SOCKET_WAIT_CALLS and qualifier == "::":
                fn.blocking_ops.append(("socket-wait", t.line))
                continue
            if qualifier == "std":
                continue
            fn.calls.append(Call(name=t.text, qualifier=qualifier,
                                 receiver=receiver, line=t.line,
                                 token_index=i))


def parse_file(program: Program, rel: str, text: str) -> None:
    program.files[rel] = text
    FileParser(rel, text, program).parse()


def parse_tree(root: str, rel_dirs, extensions, exclude_dirs=()) -> Program:
    program = Program()
    for rel_dir in rel_dirs:
        top = os.path.join(root, rel_dir)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(
                d for d in dirnames
                if os.path.relpath(os.path.join(dirpath, d), root)
                not in exclude_dirs)
            for name in sorted(filenames):
                if not name.endswith(tuple(extensions)):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                with open(path, encoding="utf-8", errors="replace") as f:
                    parse_file(program, rel, f.read())
    return program
