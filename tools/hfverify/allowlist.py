"""Single source of truth for HyperFile's sanctioned-primitive policy.

Both lint layers import from here:
  * tools/check_sync_discipline.py — the token-level ban on raw std sync
    primitives, ad-hoc atomics, and inline memory orders.
  * tools/hfverify — the whole-program role/blocking/lock-order analysis.

Keeping the data in one module means a newly sanctioned file or primitive is
added exactly once; a divergence between the two checkers is impossible by
construction (ISSUE 7 satellite).
"""

import os

# --------------------------------------------------------------------------
# Shared tree layout.
# --------------------------------------------------------------------------

SCAN_DIRS = ("src", "tests", "bench", "examples")
CPP_EXTENSIONS = (".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h")

# The hfverify fixture corpus intentionally contains seeded violations of
# every rule (including raw-primitive use); no checker scans it as part of
# the tree. `hfverify --self-test` is the only consumer.
FIXTURE_DIR = os.path.join("tests", "fixtures", "hfverify")
EXCLUDE_DIRS = {FIXTURE_DIR}

# --------------------------------------------------------------------------
# check_sync_discipline: raw-primitive bans and their sanctioned homes.
# --------------------------------------------------------------------------

# The one file allowed to name raw std sync primitives.
SYNC_ALLOWED = {os.path.join("src", "common", "sync.hpp")}

SYNC_BANNED_TOKENS = [
    r"std\s*::\s*mutex\b",
    r"std\s*::\s*timed_mutex\b",
    r"std\s*::\s*recursive_mutex\b",
    r"std\s*::\s*recursive_timed_mutex\b",
    r"std\s*::\s*shared_mutex\b",
    r"std\s*::\s*shared_timed_mutex\b",
    r"std\s*::\s*condition_variable\b",
    r"std\s*::\s*condition_variable_any\b",
    r"std\s*::\s*lock_guard\b",
    r"std\s*::\s*unique_lock\b",
    r"std\s*::\s*scoped_lock\b",
    r"std\s*::\s*shared_lock\b",
    r"#\s*include\s*<mutex>",
    r"#\s*include\s*<condition_variable>",
    r"#\s*include\s*<shared_mutex>",
]

# Non-bool std::atomic / std::atomic_flag / explicit memory orders: src/
# only, confined to the sanctioned homes below (DESIGN.md §12/§14).
ATOMIC_SCAN_DIR = "src"
ATOMIC_ALLOWED = {
    os.path.join("src", "common", "sync.hpp"),
    os.path.join("src", "common", "metrics.hpp"),
    # Log-level threshold: configuration read on every HF_DEBUG, not a
    # metric, and logging must not depend on the registry.
    os.path.join("src", "common", "logging.hpp"),
}
ATOMIC_BANNED_TOKENS = [
    r"std\s*::\s*atomic\b(?!\s*<\s*bool\s*>)",
    r"std\s*::\s*atomic_flag\b",
]
ORDER_BANNED_TOKENS = [
    r"std\s*::\s*memory_order\w*",
]

# --------------------------------------------------------------------------
# hfverify: thread-role analysis configuration (DESIGN.md §15).
# --------------------------------------------------------------------------

# Directories whose sources form the whole-program view.
ANALYSIS_DIRS = ("src",)

# Handler-ordering rule: message handlers live here.
HANDLER_FILE = os.path.join("src", "dist", "site_server.cpp")

# The dedup predicate every sequenced-message handler must consult before
# its first side effect (PR 3's idempotence contract, DESIGN.md §11).
DEDUP_PREDICATE = "already_seen"

# Calls that mutate store / weight / protocol state. A handler reaching one
# of these before the dedup guard replays side effects on duplicated frames.
SIDE_EFFECT_CALLS = {
    # weight conservation (term/)
    "repay_weight", "borrow_weight", "repay", "borrow", "split",
    # distributed-set / D-S termination protocol
    "ds_on_computation_message", "ds_on_send", "ds_try_settle",
    "note_engagement", "maybe_finish",
    # engine seeding / drains
    "add_item", "seed_local_set", "seed_initial", "drain", "drain_and_flush",
    # routing / replies
    "route_remote", "flush_batches", "send_reply",
    # summary exchange (DESIGN.md §16): installing a gossiped record before
    # the dedup guard would let a duplicated frame re-run the install scan
    "install_summary",
    # store mutations
    "create_set", "put", "erase", "take", "bind_set", "merge_into",
    "apply_wal_record",
    # WAL replication (DESIGN.md §18): applying a shipped segment or catchup
    # snapshot before the dedup guard would replay redo records (or rewind
    # the shadow store) on duplicated frames
    "apply_segment", "apply_catchup", "apply_segment_records",
}

# Calls that are allowed inside the dedup guard's early-return block
# (pure accounting — they must not mutate protocol state).
DEDUP_GUARD_ALLOWED_CALLS = {"counter", "inc", "metrics", "add", "gauge",
                             "set", "observe", "histogram"}

# Lock-order rule: the sanctioned nesting edges, as
# ("Class::mutex_field", "Class::mutex_field") pairs. Everything not listed
# here must be a leaf (DESIGN.md §10 rule 2); hfverify --lock-order fails on
# any new edge or cycle, and cross-checks this table against the §10 prose.
SANCTIONED_LOCK_EDGES: set = set()

# Field names whose type marks them as a lockable for the lock-order rule.
MUTEX_TYPE_IDS = {"Mutex"}
