"""Reach guard: every library function runs in some pinned study.

While ``cli.main`` runs every CLI case of the hash gate, plus the
one-shot ``apps`` commands of the README quick start, a profile hook
records the (file, first line) of each code object of src/greenlinks
that is entered.  The AST maps those pairs to qualified names; a
decorated function's code starts at its first decorator.  No
``co_qualname`` is needed, so Python 3.10 runs the same check.

A function that no study enters either waits on the allowlist, with its
reason, or gets wired into a study or deleted.  A study that starts to
reach an allowlisted function makes this test fail too, so the list
only shrinks.
"""

import ast
import sys
from pathlib import Path

from greenlinks import cli
from test_artifact_hashes import cli_cases

# The library as imported, so code objects and sources name the same files.
SRC = Path(cli.__file__).parent

APPS = [
    ["apps", "SEARCH maize"],
    ["apps", "BUY L1-1"],
    ["apps", "SELL maize 3 2.0"],
    [
        "apps",
        "--scenario",
        str(Path(__file__).resolve().parents[1] / "scenarios" / "market_edge.json"),
        "SEARCH maize",
    ],
]

# Kept without a study, each for a reason.
ALLOWED = {
    # The paper's user-to-user messaging primitive.  Acceptance
    # criterion 9 and the library hash case run it; no CLI study does.
    "sync.LocalServer.store_and_forward",
    "sync.MessageBoard.handler",
    "sync.MessageBoard.deposit",
    "sync.MessageBoard.deliver_local",
    "sync.MessageBoard.pull",
    "simcore.Simulation._resolve_dest_node",
    "simcore.Simulation.local.<locals>.resolve_local",
    "identity.CloudRegistry.find",
    # Global issuance: a "global" identity takes an external number
    # from the egress pool.  No study issues one.
    "identity.EgressAllocator.allocate",
    # Lazy invalidation: sync_node drops the cache entries whose binding
    # moved.  No study re-homes an identity.
    "identity.IdentityCache.drop",
    # The store's exactly-once invariant, which the sync and acceptance
    # tests assert after faulty runs.
    "sync.CloudStore.applied_once",
}


def functions():
    """{(file, first line): "module.qualname"} of every function in the
    library, nested ones included."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(str(path), first)] = f"{path.stem}.{qualname}"
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def reached(tmp_path):
    """(file, first line) of every library code object the studies enter."""
    src = str(SRC)
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src):
                seen.add((code.co_filename, code.co_firstlineno))

    runs = [*cli_cases(tmp_path), *((" ".join(argv), argv) for argv in APPS)]
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for k, (case, argv) in enumerate(runs):
            out = ["--out", str(tmp_path / f"out{k}")] if argv[0] != "apps" else []
            assert cli.main([*argv, *out]) == 0, case
    finally:
        sys.setprofile(previous)
    return seen


def test_every_function_runs_in_a_study(tmp_path, capsys):
    defs = functions()
    seen = reached(tmp_path)
    unreached = {name for key, name in defs.items() if key not in seen}
    assert sorted(unreached - ALLOWED) == []
    # The allowlist holds exactly the functions no study reaches.
    assert sorted(ALLOWED - unreached) == []
