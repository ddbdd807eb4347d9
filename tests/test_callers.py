"""Dead-name guard: every library definition has a reader in the program.

A module-level function or class, or a method that is not a dunder,
passes when its name occurs in the code of src/ or perfbench/ besides
its own ``def``/``class`` lines: as a name, or as a part of a string
literal whose text is an identifier or a dotted name, such as
"advance" or "simcore.sim.poke" (the benchmark wraps methods by name).
Prose in strings, such as help text, does not count, and neither do
comments, docstrings or tests: code that only a test calls gets wired
into a study or deleted.
"""

import ast
import io
import tokenize
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
    # The paper's user-to-user messaging primitive; waits to be wired into
    # a workload like VoiceBoard.
    "store_and_forward",
    # The paper's three-stage identity resolution (zone caches, cloud
    # directory, egress); waits to be wired into a workload like VoiceBoard.
    "lookup",
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


def name_parts(text):
    """The parts of text when it is an identifier or a dotted name."""
    parts = text.split(".")
    return parts if all(part.isidentifier() for part in parts) else []


def fstring_words(node):
    """Words of an f-string that Python 3.11 and older tokenize as one
    STRING: the words Python 3.12 takes from its separate tokens, that is
    its literal text and the code of its replacement fields."""
    for piece in node.values:
        if isinstance(piece, ast.Constant):
            yield from name_parts(piece.value)
        else:
            yield from code_words(ast.unparse(piece.value))
            if piece.conversion != -1:  # the r of !r is a name token too
                yield chr(piece.conversion)
            if piece.format_spec is not None:
                yield from fstring_words(piece.format_spec)


def code_words(source):
    """The names in source and the parts of its string literals that are
    identifiers or dotted names, leaving out comments and docstrings.
    The literal text of an f-string counts without its replacement
    fields, whose code counts as code."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        and ast.get_docstring(node, clean=False) is not None
    }
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            yield tok.string
        elif tok.type == tokenize.STRING and tok.start not in docstrings:
            literal = ast.parse(tok.string, mode="eval").body
            if isinstance(literal, ast.JoinedStr):
                yield from fstring_words(literal)
            elif isinstance(literal.value, str):
                yield from name_parts(literal.value)
        # From Python 3.12 an f-string is split into tokens: its literal
        # text, and the tokens of its replacement fields.
        elif tok.type == getattr(tokenize, "FSTRING_MIDDLE", None):
            yield from name_parts(tok.string)


def unread_names():
    words = Counter(
        word
        for top in READERS
        for path in sorted(top.rglob("*.py"))
        for word in code_words(path.read_text())
    )
    defs = list(definitions())
    count = Counter(name for _, name in defs)
    return sorted((owner, name) for owner, name in defs if words[name] <= count[name])


def test_every_definition_has_a_reader():
    unread = unread_names()
    assert [f"{o}.{n}" for o, n in unread if n not in ALLOWED] == []
    # The allowlist holds exactly the names it excuses.
    assert {n for _, n in unread} == ALLOWED
