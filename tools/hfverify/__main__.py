"""hfverify — whole-program thread-confinement, blocking-call, and
protocol-invariant static analysis for HyperFile.

Usage:
  python3 tools/hfverify                    # all rules over the repo
  python3 tools/hfverify --rules ordering,lockorder
  python3 tools/hfverify --self-test        # run the fixture corpus
  python3 tools/hfverify --lock-order       # print the observed lock graph
  python3 tools/hfverify --list-waivers     # the waiver inventory
  python3 tools/hfverify --frontend libclang --compdb build/compile_commands.json

Exit status: 0 clean, 1 violations (or self-test failure), 2 usage error.
See tools/hfverify/README.md and DESIGN.md §15.
"""

import argparse
import os
import sys

if __package__ in (None, ""):  # `python3 tools/hfverify` execution
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from hfverify.__main__ import main  # type: ignore
    sys.exit(main())

from . import allowlist
from .model import Program
from .parse_cpp import parse_tree
from .rules import ALL_RULES, run_rule


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


def _load_program(args) -> Program:
    if args.frontend == "libclang":
        from . import clang_frontend
        return clang_frontend.parse_tree(args.root, args.compdb)
    if args.frontend == "auto":
        # The text frontend is canonical; libclang is opt-in only.
        pass
    return parse_tree(args.root, allowlist.ANALYSIS_DIRS,
                      allowlist.CPP_EXTENSIONS,
                      exclude_dirs=allowlist.EXCLUDE_DIRS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hfverify", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=_repo_root(),
                        help="repository root (default: auto-detected)")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help=f"comma-separated subset of {ALL_RULES}")
    parser.add_argument("--frontend", default="auto",
                        choices=("auto", "text", "libclang"),
                        help="auto/text use the built-in parser; libclang "
                             "needs python3-clang + a compile database")
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json for --frontend libclang")
    parser.add_argument("--design", default=None,
                        help="DESIGN.md path for the lock-order cross-check "
                             "(default: <root>/DESIGN.md)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the tests/fixtures/hfverify corpus")
    parser.add_argument("--lock-order", action="store_true",
                        help="print the observed lock-nesting graph and run "
                             "only the lockorder rule")
    parser.add_argument("--list-waivers", action="store_true",
                        help="print every hfverify waiver in the tree")
    args = parser.parse_args(argv)

    if args.self_test:
        from .selftest import run_self_test
        return run_self_test(args.root)

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    if args.lock_order:
        rules = ["lockorder"]
    for r in rules:
        if r not in ALL_RULES:
            print(f"hfverify: unknown rule {r!r} (have {ALL_RULES})",
                  file=sys.stderr)
            return 2

    program = _load_program(args)

    if args.list_waivers:
        if not program.waivers:
            print("no waivers")
            return 0
        for w in sorted(program.waivers,
                        key=lambda w: (w.file, w.line)):
            reason = f": {w.reason}" if w.reason else ""
            print(f"{w.file}:{w.line}: allow-{w.kind}({w.tag}){reason}")
        print(f"{len(program.waivers)} waiver(s)")
        return 0

    if args.lock_order:
        from .rules.lockorder import observed_edges
        edges = sorted({(e, via) for e, _f, _l, via
                        in observed_edges(program)})
        print("observed lock-nesting edges:")
        if not edges:
            print("  (none — every lock is a leaf)")
        for (a, b), via in edges:
            print(f"  {a} -> {b}  (via {via})")

    design = args.design or os.path.join(args.root, "DESIGN.md")
    violations = []
    for rule in rules:
        kwargs = {}
        if rule == "lockorder":
            kwargs["design_path"] = design
        violations.extend(run_rule(rule, program, **kwargs))

    if violations:
        print(f"hfverify: {len(violations)} violation(s):")
        for v in violations:
            print("  " + v.format())
        return 1
    n_fn = sum(1 for f in program.functions.values() if f.has_definition)
    print(f"hfverify: clean ({', '.join(rules)}; {n_fn} functions, "
          f"{len(program.classes)} classes, {len(program.waivers)} "
          f"waiver(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
