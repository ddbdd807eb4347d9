"""Dead-name guard: every library definition has a reader in the program.

A module-level function or class, or a method that is not a dunder,
passes when its name occurs as a word somewhere in src/ or perfbench/
besides its own ``def``/``class`` lines.  Tests do not count as readers:
code that only a test calls gets wired into a study or deleted.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "greenlinks"
READERS = (SRC, ROOT / "perfbench")

# Kept without a reader, each for a reason.
ALLOWED = {
    # The paper's voice social media primitive; waits to become a
    # workload event kind on the shared sync queue.
    "VoiceBoard",
    # VoiceBoard's recording path (slowput), same reason.
    "record_message",
    # VoiceBoard's playback path (local spool or search + fetch), same reason.
    "fetch_latest",
    # The paper's distributed sensing primitive; waits like VoiceBoard.
    "FarmMapper",
    # FarmMapper's one action, same reason.
    "upload_farm",
    # The store's exactly-once invariant, which the sync and acceptance
    # tests assert after faulty runs.
    "applied_once",
}


def definitions():
    """(owner, name) of every module-level function or class and every
    non-dunder method in the library."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{path.stem}.{node.name}", item.name


def unread_names():
    words = Counter(
        word
        for top in READERS
        for path in sorted(top.rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text())
    )
    defs = list(definitions())
    count = Counter(name for _, name in defs)
    return sorted((owner, name) for owner, name in defs if words[name] <= count[name])


def test_every_definition_has_a_reader():
    unread = unread_names()
    assert [f"{o}.{n}" for o, n in unread if n not in ALLOWED] == []
    # The allowlist holds exactly the names it excuses.
    assert {n for _, n in unread} == ALLOWED
