"""Dead-name guard: every library definition, parameter and stored
value has a reader in the program.

A module-level function or class, or a method that is not a dunder,
passes when its name occurs in the code of src/ or perfbench/ besides
its own ``def``/``class`` lines: as a name, or as a part of a string
literal whose text is an identifier or a dotted name, such as
"advance" or "simcore.sim.poke" (the benchmark wraps methods by name).
Prose in strings, such as help text, does not count, and neither do
comments, docstrings or tests: code that only a test calls gets wired
into a study or deleted.

A parameter of a library function, other than ``self``/``cls``, passes
when its function's body reads it (a nested function's read counts).
A lambda is not checked: its caller fixes its signature.

A dataclass field, or an attribute a method sets as ``self.<name>``,
passes when ``.<name>`` is read somewhere in the code of src/ or
perfbench/.  Writing into the value is no read: ``self.n += 1``,
``self.by_id[k] = v`` (or ``del`` or ``+=`` on the item) and a call that
only fills or empties it, such as ``self.log.append(x)``.  The check
matches by name, not by owner, so a field whose name is read on another
class still passes: ``.zone`` is read on a Node, so NetworkAddress.zone
passes too.
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
    # The store's exactly-once invariant, which the sync and acceptance
    # tests assert after faulty runs.
    "applied_once",
    # The paper's user-to-user messaging primitive.  Acceptance
    # criterion 9 and the library hash case run it; no CLI study does.
    "store_and_forward",
}


# Parameters kept without a reader, per function, each for a reason.
ALLOWED_PARAMETERS = {
    # The store-handler signature (store, app_type, key, value,
    # request_id, at) that CloudStore.apply calls every handler with:
    # the value the request carries (a dict from a JSON app, a raw
    # write's bytes), never its wire bytes; the default upsert is called
    # with the store as self.
    "CloudStore._upsert",
    "MessageBoard.handler",
    # CloudStore.search calls its predicate as match(key, record).
    "Marketplace.search.match",
}

# Stored values kept without a reader, each for a reason.
ALLOWED_FIELDS = {
    # Counters that wait to move into one stats object.
    "Workload.buy_errors",
    "Detector.dropped_unplanned",
    # The channel-switch log, which also waits for the stats object.
    "Detector.switches",
    # Messages dropped undelivered: acceptance criterion 9's fault check
    # and the library hash case read them.
    "MessageBoard.expired",
}

# Methods that only fill or empty the container they are called on.
MUTATORS = {
    "append", "extend", "add", "update", "insert", "appendleft", "remove",
    "discard", "clear",
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


def library_trees():
    for path in sorted(SRC.glob("*.py")):
        yield ast.parse(path.read_text())


def unread_parameters():
    """(qualified function, parameter) of every parameter, other than
    self/cls, that its function's body does not read."""
    unread = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                a = child.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                read = {
                    n.id
                    for statement in child.body
                    for n in ast.walk(statement)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                unread.extend(
                    (name, p.arg)
                    for p in params
                    if p and p.arg not in ("self", "cls") and p.arg not in read
                )
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")

    for tree in library_trees():
        visit(tree, "")
    return unread


def is_dataclass(cls):
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def stored_values():
    """(class, name) of every dataclass field and every attribute a method
    of the class sets as self.<name>."""
    for tree in library_trees():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = {
                node.attr
                for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            }
            if is_dataclass(cls):
                names |= {
                    item.target.id
                    for item in cls.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                }
            yield from ((cls.name, name) for name in sorted(names))


def attribute_reads(tree):
    """The names of the attributes tree loads, leaving out each load that
    only writes into the value: the object of a MUTATORS call, or of a
    subscript store, del or augmented assignment."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        parent = parents[node]
        if (
            isinstance(parent, ast.Subscript)
            and parent.value is node
            and not isinstance(parent.ctx, ast.Load)
        ):
            continue
        if (
            isinstance(parent, ast.Attribute)
            and parent.attr in MUTATORS
            and isinstance(parents[parent], ast.Call)
            and parents[parent].func is parent
        ):
            continue
        yield node.attr


def unread_values():
    read = {
        name
        for top in READERS
        for path in sorted(top.rglob("*.py"))
        for name in attribute_reads(ast.parse(path.read_text()))
    }
    return sorted(f"{owner}.{name}" for owner, name in stored_values() if name not in read)


def test_every_parameter_is_read():
    unread = unread_parameters()
    assert [f"{f}({p})" for f, p in unread if f not in ALLOWED_PARAMETERS] == []
    assert {f for f, _ in unread} == ALLOWED_PARAMETERS


def test_every_stored_value_is_read():
    unread = unread_values()
    assert [v for v in unread if v not in ALLOWED_FIELDS] == []
    assert set(unread) == ALLOWED_FIELDS
