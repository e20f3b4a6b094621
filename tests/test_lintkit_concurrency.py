"""Tests for reprolint's concurrency tier (semantic.concurrency + RPR2xx).

Every rule (RPR201, RPR202, RPR205) gets at least two true-positive
fixtures (the defect is detected) and two true-negative fixtures (the
precision guards hold on conforming code). Block-scoped suppression
(a directive on a ``with`` header silencing findings inside the block)
is pinned here too, since the concurrency rules are what anchor findings
deep inside guarded blocks.
"""

import ast
from pathlib import Path

import repro
from repro.lintkit import lint_paths
from repro.lintkit.semantic.concurrency import ConcurrencyIndex
from repro.lintkit.semantic.symbols import ProjectIndex

SRC_REPRO = Path(repro.__file__).resolve().parent


def build_index(tmp_path, files):
    """Parse ``{filename: code}`` into one ProjectIndex (flat stems)."""
    entries = []
    for name, code in sorted(files.items()):
        path = tmp_path / name
        path.write_text(code)
        entries.append((str(path), "", ast.parse(code, filename=str(path))))
    return ProjectIndex.build(entries)


def lint_project(tmp_path, files, select):
    """Write ``{filename: code}`` and lint the directory as one batch."""
    for name, code in files.items():
        (tmp_path / name).write_text(code)
    return lint_paths([tmp_path], select=select)


def rule_ids(findings):
    return [f.rule_id for f in findings]


def messages(findings):
    return " | ".join(f.message for f in findings)


# ----------------------------------------------------------------------
# the analysis itself
# ----------------------------------------------------------------------

_COUNTER = (
    "import threading\n"
    "\n"
    "class Counter:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._bounds = (0, 10)\n"
    "        self._total = 0\n"
    "\n"
    "    def add(self, n):\n"
    "        with self._lock:\n"
    "            self._total = self._total + n\n"
    "\n"
    "    def low(self):\n"
    "        return self._bounds[0]\n"
)


class TestConcurrencyIndex:
    def test_lock_attr_and_guarded_set(self, tmp_path):
        index = build_index(tmp_path, {"mod.py": _COUNTER})
        conc = index.concurrency()
        cc = conc.classes["mod.Counter"]
        assert cc.locks == {"_lock"}
        # _total is written under the lock by a non-constructor method;
        # _bounds is only assigned in __init__ and stays unguarded.
        assert set(cc.guarded) == {"_total"}
        assert cc.guarded["_total"] == {"_lock"}

    def test_condition_aliases_wrapped_lock(self, tmp_path):
        code = (
            "import threading\n"
            "\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._not_empty = threading.Condition(self._lock)\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "\n"
            "    def put(self, x):\n"
            "        with self._not_empty:\n"
            "            self._items.append(x)\n"
        )
        index = build_index(tmp_path, {"mod.py": code})
        cc = index.concurrency().classes["mod.Box"]
        # Declaration order does not matter: the condition canonicalizes
        # to the wrapped lock, so both names open the same guard.
        assert cc.aliases["_not_empty"] == "_lock"
        assert cc.guarded["_items"] == {"_lock"}

    def test_bare_condition_is_its_own_guard(self, tmp_path):
        code = (
            "import threading\n"
            "\n"
            "class Gate:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n"
            "        self._open = False\n"
            "\n"
            "    def open(self):\n"
            "        with self._cond:\n"
            "            self._open = True\n"
        )
        index = build_index(tmp_path, {"mod.py": code})
        cc = index.concurrency().classes["mod.Gate"]
        assert cc.aliases["_cond"] == "_cond"
        assert cc.guarded["_open"] == {"_cond"}

    def test_project_local_event_class_not_misclassified(self, tmp_path):
        files = {
            "events.py": "class Event:\n    pass\n",
            "sched.py": (
                "from events import Event\n"
                "\n"
                "class Scheduler:\n"
                "    def __init__(self):\n"
                "        self._next = Event()\n"
            ),
        }
        index = build_index(tmp_path, files)
        # A project-local Event is not threading.Event: no sync attrs,
        # no class summary at all.
        assert "sched.Scheduler" not in index.concurrency().classes

    def test_module_global_sync_object_detected(self, tmp_path):
        code = (
            "import threading\n"
            "\n"
            "_CACHE_LOCK = threading.Lock()\n"
            "\n"
            "def locked_update(x):\n"
            "    with _CACHE_LOCK:\n"
            "        return x\n"
        )
        index = build_index(tmp_path, {"mod.py": code})
        conc = index.concurrency()
        assert conc.module_sync["mod"] == {"_CACHE_LOCK": "lock"}

    def test_cached_on_project_index(self, tmp_path):
        index = build_index(tmp_path, {"mod.py": _COUNTER})
        assert index.concurrency() is index.concurrency()
        assert isinstance(index.concurrency(), ConcurrencyIndex)


# ----------------------------------------------------------------------
# RPR201 — lock discipline
# ----------------------------------------------------------------------


class TestRPR201LockDiscipline:
    def test_detects_unlocked_read(self, tmp_path):
        code = _COUNTER + (
            "\n"
            "    def snapshot(self):\n"
            "        return self._total\n"
        )
        findings = lint_project(tmp_path, {"mod.py": code}, {"RPR201"})
        assert rule_ids(findings) == ["RPR201"]
        assert "read of '_total'" in findings[0].message
        assert "_lock" in findings[0].message

    def test_detects_unlocked_write(self, tmp_path):
        code = _COUNTER + (
            "\n"
            "    def reset(self):\n"
            "        self._total = 0\n"
        )
        findings = lint_project(tmp_path, {"mod.py": code}, {"RPR201"})
        assert rule_ids(findings) == ["RPR201"]
        assert "write of '_total'" in findings[0].message

    def test_clean_class_and_init_only_reads(self, tmp_path):
        # Every guarded access is under the lock; _bounds is init-only
        # configuration and its lock-free read is sanctioned.
        code = _COUNTER + (
            "\n"
            "    def drain(self):\n"
            "        with self._lock:\n"
            "            total = self._total\n"
            "            self._total = 0\n"
            "        return total\n"
        )
        assert lint_project(tmp_path, {"mod.py": code}, {"RPR201"}) == []

    def test_helper_called_only_under_lock_is_clean(self, tmp_path):
        code = (
            "import threading\n"
            "\n"
            "class Helper:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "\n"
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self._n = 0\n"
            "\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._advance()\n"
            "\n"
            "    def _advance(self):\n"
            "        self._n = self._n + 1\n"
        )
        assert lint_project(tmp_path, {"mod.py": code}, {"RPR201"}) == []

    def test_condition_alias_scope_is_a_lock_scope(self, tmp_path):
        code = (
            "import threading\n"
            "\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._ready = threading.Condition(self._lock)\n"
            "        self._items = []\n"
            "\n"
            "    def put(self, x):\n"
            "        with self._ready:\n"
            "            self._items.append(x)\n"
            "            self._ready.notify()\n"
            "\n"
            "    def size(self):\n"
            "        with self._lock:\n"
            "            return len(self._items)\n"
        )
        assert lint_project(tmp_path, {"mod.py": code}, {"RPR201"}) == []


# ----------------------------------------------------------------------
# RPR202 — atomicity
# ----------------------------------------------------------------------

_SPLIT_INSTALL = (
    "import threading\n"
    "\n"
    "class Table:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._tables = {}\n"
    "\n"
    "    def install(self, key, build):\n"
    "        with self._lock:\n"
    "            if key in self._tables:\n"
    "                return 0\n"
    "        value = build(key)\n"
    "        with self._lock:\n"
    "%s"
    "        return 1\n"
)


class TestRPR202Atomicity:
    def test_detects_split_check_then_act(self, tmp_path):
        code = _SPLIT_INSTALL % "            self._tables[key] = value\n"
        findings = lint_project(tmp_path, {"mod.py": code}, {"RPR202"})
        assert rule_ids(findings) == ["RPR202"]
        assert "earlier lock acquisition" in findings[0].message

    def test_detects_unlocked_read_modify_write(self, tmp_path):
        code = (
            "import threading\n"
            "\n"
            "class Stats:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._hits = 0\n"
            "\n"
            "    def record(self):\n"
            "        with self._lock:\n"
            "            self._hits += 1\n"
            "\n"
            "    def record_fast(self):\n"
            "        self._hits += 1\n"
        )
        findings = lint_project(tmp_path, {"mod.py": code}, {"RPR202"})
        assert rule_ids(findings) == ["RPR202"]
        assert "read-modify-write" in findings[0].message

    def test_one_defect_one_finding_across_201_202(self, tmp_path):
        # An unlocked += is RPR202's case only; RPR201 must not double-flag.
        code = (
            "import threading\n"
            "\n"
            "class Stats:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._hits = 0\n"
            "\n"
            "    def record(self):\n"
            "        with self._lock:\n"
            "            self._hits += 1\n"
            "\n"
            "    def record_fast(self):\n"
            "        self._hits += 1\n"
        )
        findings = lint_project(
            tmp_path, {"mod.py": code}, {"RPR201", "RPR202"}
        )
        assert rule_ids(findings) == ["RPR202"]

    def test_double_checked_install_is_clean(self, tmp_path):
        code = _SPLIT_INSTALL % (
            "            if key in self._tables:\n"
            "                return 0\n"
            "            self._tables[key] = value\n"
        )
        assert lint_project(tmp_path, {"mod.py": code}, {"RPR202"}) == []

    def test_cross_scope_read_only_is_clean(self, tmp_path):
        # table_for's shape: a locked read in one scope, another locked
        # read later, but no write — nothing acts on a stale check.
        code = (
            "import threading\n"
            "\n"
            "class Table:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._tables = {}\n"
            "\n"
            "    def install(self, key, value):\n"
            "        with self._lock:\n"
            "            self._tables[key] = value\n"
            "\n"
            "    def lookup(self, key):\n"
            "        with self._lock:\n"
            "            if key in self._tables:\n"
            "                return self._tables[key]\n"
            "        return None\n"
        )
        assert lint_project(tmp_path, {"mod.py": code}, {"RPR202"}) == []


# ----------------------------------------------------------------------
# RPR205 — blocking-call deadlines
# ----------------------------------------------------------------------


class TestRPR205BlockingDeadlines:
    def test_detects_untimed_condition_wait(self, tmp_path):
        code = (
            "import threading\n"
            "\n"
            "class Waiter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._ready = threading.Condition(self._lock)\n"
            "        self._items = []\n"
            "\n"
            "    def put(self, item):\n"
            "        with self._ready:\n"
            "            self._items.append(item)\n"
            "            self._ready.notify()\n"
            "\n"
            "    def take(self):\n"
            "        with self._ready:\n"
            "            while not self._items:\n"
            "                self._ready.wait()\n"
            "            return self._items.pop()\n"
        )
        findings = lint_project(tmp_path, {"mod.py": code}, {"RPR205"})
        assert rule_ids(findings) == ["RPR205"]
        assert "untimed condition wait()" in findings[0].message

    def test_detects_untimed_queue_get_and_event_wait(self, tmp_path):
        code = (
            "import queue\n"
            "import threading\n"
            "\n"
            "def drain(n):\n"
            "    q = queue.Queue()\n"
            "    return [q.get() for _ in range(n)]\n"
            "\n"
            "def pause(done):\n"
            "    stop = threading.Event()\n"
            "    stop.wait()\n"
        )
        findings = lint_project(tmp_path, {"mod.py": code}, {"RPR205"})
        assert sorted(rule_ids(findings)) == ["RPR205", "RPR205"]
        assert "queue get()" in messages(findings)
        assert "event wait()" in messages(findings)

    def test_explicit_timeout_none_still_flagged(self, tmp_path):
        code = (
            "import queue\n"
            "\n"
            "def drain(q_in):\n"
            "    q = queue.Queue()\n"
            "    return q.get(timeout=None)\n"
        )
        findings = lint_project(tmp_path, {"mod.py": code}, {"RPR205"})
        assert rule_ids(findings) == ["RPR205"]

    def test_bounded_waits_are_clean(self, tmp_path):
        code = (
            "import threading\n"
            "\n"
            "_POLL_S = 0.5\n"
            "\n"
            "class Waiter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._ready = threading.Condition(self._lock)\n"
            "        self._stop = threading.Event()\n"
            "        self._items = []\n"
            "\n"
            "    def take(self):\n"
            "        with self._ready:\n"
            "            while not self._items:\n"
            "                self._ready.wait(timeout=_POLL_S)\n"
            "            return self._items.pop()\n"
            "\n"
            "    def take_pred(self):\n"
            "        with self._ready:\n"
            "            self._ready.wait_for(lambda: self._items, _POLL_S)\n"
            "            return self._items.pop()\n"
            "\n"
            "    def idle(self):\n"
            "        return self._stop.wait(_POLL_S)\n"
        )
        assert lint_project(tmp_path, {"mod.py": code}, {"RPR205"}) == []

    def test_nonblocking_queue_ops_are_clean(self, tmp_path):
        code = (
            "import queue\n"
            "\n"
            "def pump(items):\n"
            "    q = queue.Queue()\n"
            "    for item in items:\n"
            "        q.put_nowait(item)\n"
            "    first = q.get(timeout=0.1)\n"
            "    second = q.get(block=False)\n"
            "    q.put(first, False)\n"
            "    return first, second\n"
        )
        assert lint_project(tmp_path, {"mod.py": code}, {"RPR205"}) == []

    def test_socket_without_settimeout_flagged_with_clean(self, tmp_path):
        flagged = (
            "import socket\n"
            "\n"
            "class RawConn:\n"
            "    def __init__(self, host):\n"
            "        self._sock = socket.create_connection((host, 80))\n"
            "\n"
            "    def read(self, n):\n"
            "        return self._sock.recv(n)\n"
            "\n"
            "    def close(self):\n"
            "        self._sock.close()\n"
        )
        findings = lint_project(tmp_path, {"mod.py": flagged}, {"RPR205"})
        assert rule_ids(findings) == ["RPR205"]
        assert "settimeout" in findings[0].message

        clean = flagged.replace(
            "        self._sock = socket.create_connection((host, 80))\n",
            "        self._sock = socket.create_connection((host, 80))\n"
            "        self._sock.settimeout(5.0)\n",
        )
        assert lint_project(tmp_path, {"mod.py": clean}, {"RPR205"}) == []


# ----------------------------------------------------------------------
# block-scoped suppression (with-statement directives)
# ----------------------------------------------------------------------


class TestBlockSuppression:
    def test_directive_on_with_header_covers_the_block(self, tmp_path):
        code = _COUNTER + (
            "\n"
            "    def dump(self, path):\n"
            "        with open(path, 'w') as sink:  # reprolint: disable=RPR201\n"
            "            sink.write(str(self._total))\n"
        )
        assert lint_project(tmp_path, {"mod.py": code}, {"RPR201"}) == []

    def test_without_directive_the_same_block_is_flagged(self, tmp_path):
        code = _COUNTER + (
            "\n"
            "    def dump(self, path):\n"
            "        with open(path, 'w') as sink:\n"
            "            sink.write(str(self._total))\n"
        )
        findings = lint_project(tmp_path, {"mod.py": code}, {"RPR201"})
        assert rule_ids(findings) == ["RPR201"]

    def test_block_suppression_does_not_leak_past_the_block(self, tmp_path):
        code = _COUNTER + (
            "\n"
            "    def dump(self, path):\n"
            "        with open(path, 'w') as sink:  # reprolint: disable=RPR201\n"
            "            sink.write(str(self._total))\n"
            "        return self._total\n"
        )
        findings = lint_project(tmp_path, {"mod.py": code}, {"RPR201"})
        # Only the access after the with-block survives.
        assert rule_ids(findings) == ["RPR201"]
        assert findings[0].line == code.count("\n")

    def test_block_suppression_is_rule_specific(self, tmp_path):
        # The directive names RPR999-nothing relevant: RPR201 still fires
        # inside the block.
        code = _COUNTER + (
            "\n"
            "    def dump(self, path):\n"
            "        with open(path, 'w') as sink:  # reprolint: disable=RPR103\n"
            "            sink.write(str(self._total))\n"
        )
        findings = lint_project(tmp_path, {"mod.py": code}, {"RPR201"})
        assert rule_ids(findings) == ["RPR201"]


# ----------------------------------------------------------------------
# the package's own invariant
# ----------------------------------------------------------------------


class TestSelfCheck:
    def test_src_repro_clean_under_concurrency_tier(self):
        findings = lint_paths(
            [SRC_REPRO],
            select={"RPR201", "RPR202", "RPR205"},
        )
        assert findings == [], messages(findings)
