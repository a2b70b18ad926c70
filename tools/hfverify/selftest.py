"""Fixture-driven self-test: the analyzer lints itself before the tree.

Every file under tests/fixtures/hfverify/ is an isolated mini translation
unit carrying directives in comments:

  // HFVERIFY-RULE: confinement            which rule to run
  // HFVERIFY-EXPECT: <substring>          one per expected violation
  // HFVERIFY-ALLOW-EDGE: A::x -> B::y     lockorder: sanctioned pair(s)

A fixture passes when the rule reports exactly len(EXPECT) violations and
every EXPECT substring matches at least one of them. Known-good fixtures
carry RULE but no EXPECT and must come back clean. A rule that silently
stopped matching — or started over-matching — fails the corpus, same deal
as check_sync_discipline.py's self-test.
"""

import os
import re
from typing import List

from .allowlist import FIXTURE_DIR
from .model import Program
from .parse_cpp import parse_file
from .rules import ALL_RULES, run_rule

_RULE_RE = re.compile(r"HFVERIFY-RULE:\s*(\S+)")
_EXPECT_RE = re.compile(r"HFVERIFY-EXPECT:\s*(.+?)\s*$", re.MULTILINE)
_EDGE_RE = re.compile(
    r"HFVERIFY-ALLOW-EDGE:\s*(\S+)\s*->\s*(\S+)")


def run_self_test(root: str) -> int:
    fixture_dir = os.path.join(root, FIXTURE_DIR)
    if not os.path.isdir(fixture_dir):
        print(f"hfverify self-test: fixture dir {fixture_dir} missing")
        return 1
    names = sorted(n for n in os.listdir(fixture_dir)
                   if n.endswith((".cpp", ".hpp")))
    failures = 0
    ran = 0
    per_rule = {r: 0 for r in ALL_RULES}
    for name in names:
        rel = os.path.join(FIXTURE_DIR, name)
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()
        m = _RULE_RE.search(text)
        if not m:
            print(f"self-test FAIL: {name}: no HFVERIFY-RULE directive")
            failures += 1
            continue
        rule = m.group(1)
        if rule not in ALL_RULES:
            print(f"self-test FAIL: {name}: unknown rule {rule!r}")
            failures += 1
            continue
        expects: List[str] = _EXPECT_RE.findall(text)
        program = Program()
        parse_file(program, rel, text)
        kwargs = {}
        if rule == "ordering":
            kwargs["handler_file"] = rel
        elif rule == "lockorder":
            edges = {(a, b) for a, b in _EDGE_RE.findall(text)}
            kwargs["sanctioned"] = edges
        violations = run_rule(rule, program, **kwargs)
        got = [v.format() for v in violations]
        problems = []
        if len(got) != len(expects):
            problems.append(
                f"expected {len(expects)} violation(s), got {len(got)}")
        for want in expects:
            if not any(want in g for g in got):
                problems.append(f"no violation matching {want!r}")
        if problems:
            failures += 1
            print(f"self-test FAIL: {name} ({rule}):")
            for p in problems:
                print(f"  {p}")
            for g in got:
                print(f"  reported: {g}")
        ran += 1
        per_rule[rule] += 1
    for rule in ALL_RULES:
        if per_rule[rule] < 3:
            failures += 1
            print(f"self-test FAIL: rule {rule!r} has only "
                  f"{per_rule[rule]} fixture(s); the corpus requires >= 3 "
                  f"per rule family")
    if failures:
        print(f"hfverify self-test: {failures} failure(s) across "
              f"{ran} fixture(s)")
        return 1
    print(f"hfverify self-test: {ran} fixtures pass "
          f"({', '.join(f'{r}={per_rule[r]}' for r in ALL_RULES)})")
    return 0
