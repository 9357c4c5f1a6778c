"""Every definition of the program modules is used by the program.

The program modules are those of src/famespan except synth.py, which
holds the generator, the per-document references and the oracles that
the tests compare against.  Each top-level function and
class of a program module, and each method of such a class, must be
referenced somewhere in the program modules outside its own definition:
a name that only the tests use belongs beside the oracles in synth.py.
PUBLIC lists the library API that the acceptance suite calls directly.

Processes are forked, piped to, killed and reaped in forks.py only: no
other program module may use the os functions in PROCESS_CALLS, and none
at all may pin a process to CPUs (sched_setaffinity), which is left to
the kernel.
"""

import ast
from collections import Counter
from itertools import chain
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "famespan"
REFERENCE_MODULES = {"synth"}
PUBLIC = {"stats.bootstrap", "timeline.Timeline.from_pairs"}
PROCESS_CALLS = {"fork", "pipe", "waitpid", "kill", "sched_setaffinity"}


def _program_modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py")) if p.stem not in REFERENCE_MODULES}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(modules: dict[str, ast.Module]):
    """(module.qualified name, name, node) of each top-level function and
    class and of each method of such a class; dunders are left out, since
    Python calls them."""
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _dunder(node.name):
                yield f"{module}.{node.name}", node.name, node
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not _dunder(sub.name):
                        yield f"{module}.{node.name}.{sub.name}", sub.name, sub


def _locals(fn: ast.FunctionDef | ast.Lambda) -> set[str]:
    """The parameters of ``fn`` and, for a def, the names it assigns."""
    args = fn.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a}
    if isinstance(fn, ast.FunctionDef):
        names |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names


def _references(node: ast.AST, local: frozenset = frozenset()):
    """Every name that ``node`` loads, except a function's own locals, every
    attribute it reads and every name it imports."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        local = local | _locals(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.asname or node.name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, local)


def _unreferenced() -> list[str]:
    """The definitions whose name the program modules reference only
    inside the definition itself."""
    modules = _program_modules()
    everywhere = Counter(chain.from_iterable(map(_references, modules.values())))
    return [qualified for qualified, name, node in _definitions(modules)
            if everywhere[name] == sum(1 for ref in _references(node) if ref == name)]


def test_every_program_definition_is_used_by_the_program():
    assert sorted(set(_unreferenced()) - PUBLIC) == []


def test_public_exceptions_are_still_needed():
    # an exception that the program itself now uses should leave the list
    assert set(_unreferenced()) >= PUBLIC


def test_the_guard_sees_an_unused_definition(tmp_path, monkeypatch):
    # a name loaded only as another function's parameter is not a use
    (tmp_path / "stray.py").write_text(
        "def entry():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
        "def lonely():\n    return 3\n\n\ndef shadows(lonely):\n    return lonely\n\n\n"
        "class Kind:\n    def method(self):\n        return 2\n", encoding="utf-8")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert sorted(_unreferenced()) == ["stray.Kind", "stray.Kind.method", "stray.entry", "stray.lonely",
                                       "stray.shadows"]


def _process_calls() -> list[str]:
    """module.os-function of each use of a PROCESS_CALLS function, as
    ``os.name`` or imported from os, outside forks.py."""
    found = []
    for module, tree in _program_modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{module}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{module}.{alias.name}" for alias in node.names if alias.name in PROCESS_CALLS]
    return sorted(found)


def test_only_the_fork_helper_forks():
    assert [call for call in _process_calls() if not call.startswith("forks.")] == []
    assert {call.split(".")[1] for call in _process_calls()} == PROCESS_CALLS - {"sched_setaffinity"}


def test_the_guard_sees_a_stray_fork(tmp_path, monkeypatch):
    (tmp_path / "stray.py").write_text(
        "import os\nfrom os import kill, getpid\n\n\ndef spawn():\n    pid = os.fork()\n"
        "    os.sched_setaffinity(0, {0})\n    kill(pid, 9)\n    return os.getpid() + getpid()\n",
        encoding="utf-8")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert _process_calls() == ["stray.fork", "stray.kill", "stray.sched_setaffinity"]
