"""DESIGN.md and EXPERIMENTS.md name only what the code defines.

Three checks, with the standard library's ``ast`` and ``re`` only:

* every backticked identifier in the two documents (``name``,
  ``Class.attr``, ``repro.pkg.module.name``, ``call(args)``) is a name
  some Python file under ``SCANNED`` defines — a function, class,
  assignment target, attribute, argument, ``__slots__`` entry, module
  or span name — or is on ``ALLOWED``, which says why per entry;
* every backticked repository path exists (a ``file.py::name`` path
  also needs ``name`` defined in that file);
* every ``DESIGN.md S…`` / ``DESIGN.md §…`` citation in the code and
  the other documents names a heading of DESIGN.md.
"""

import ast
import builtins
import fnmatch
import glob
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "tests", "benchmarks", "perfbench", "examples")
DOCS = ("DESIGN.md", "EXPERIMENTS.md")
#: Where a relative path in the documents may start.
PATH_BASES = ("", "src", os.path.join("src", "repro"))

#: Names the documents may use although no scanned file defines them.
ALLOWED = (
    ("NumPy functions and ufunc methods the text names as the "
     "operations the code runs",
     ("accumulate", "bincount", "bitwise_and", "bitwise_count",
      "concatenate", "dot", "matmul", "multiply", "nonzero", "random",
      "reduceat", "reshape", "rint", "searchsorted")),
    ("standard-library names",
     ("O_APPEND", "RUSAGE_CHILDREN", "subprocess", "weakref", "finalize",
      "Pool")),
    ("environment variables the code reads from os.environ",
     ("REPRO_TELEMETRY",)),
    ("the paper's notation: a path's link set and a link's path set",
     ("Links", "Paths")),
)
#: File extensions: a backticked ``name.ext`` is a file, not a name.
FILE_EXTENSIONS = ("py", "md", "json", "jsonl", "txt", "yml")
#: Module prefixes whose attributes are not the repo's to define.
FOREIGN_PREFIXES = ("np", "numpy", "os", "sys")
#: Link ids of the paper's topologies (Figure 7's ``l5``, Figure 9's
#: ``l14``), which the code builds as strings.
LINK_ID = re.compile(r"l\d+")

IDENT = re.compile(
    r"\.?([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)"
    r"(?:\((?:[^()]|\([^()]*\))*\))?"
)
PATH = re.compile(r"([\w.*/-]+)(?:::([\w.]+))?")
LABEL = r"(?:§\d+|S\d+b?)"
CITATION = re.compile(
    rf"DESIGN\.md[\s#*]+({LABEL}(?:\s*(?:/|,|and)\s*{LABEL})*)"
)
HEADING = re.compile(rf"^#+\s+({LABEL})\b", re.M)


def _read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def _python_files():
    for top in SCANNED:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def _defined(tree):
    """``(every name the module defines, its top-level names)``."""
    names, top = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)):
            names.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__slots__"
                      for t in node.targets)):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant))
        elif isinstance(node, ast.Call) and node.args:
            # A span name: the literal first argument of ``span(...)``.
            func = node.func
            called = getattr(func, "attr", getattr(func, "id", None))
            first = node.args[0]
            if called == "span" and isinstance(first, ast.Constant):
                names.add(first.value)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            top.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            top.update(a.asname or a.name for a in node.names)
        else:
            top.update(n.id for n in ast.walk(node)
                       if isinstance(n, ast.Name)
                       and isinstance(n.ctx, ast.Store))
    return names, top


def _index():
    defined, by_file, modules = set(), {}, {"repro"}
    for path in _python_files():
        names, top = _defined(ast.parse(_read(path), filename=path))
        defined |= names
        by_file[path] = (names, top)
        parts = os.path.splitext(path)[0].split(os.sep)
        modules.update(p for p in parts if p != "__init__")
    return defined, by_file, modules


DEFINED, BY_FILE, MODULES = _index()
ALLOWED_NAMES = {name for _, names in ALLOWED for name in names}
#: Python's builtins (``dict``, ``AttributeError``) are the language's.
BUILTINS = set(dir(builtins))
#: perfbench's metric names, as BENCHMARK.json declares them.
METRIC_NAMES = {m["name"] for key in ("end_to_end", "per_layer")
                for m in json.loads(_read("BENCHMARK.json"))[key]}
#: What ``.gitignore`` lists is a build or run artifact, not a repo file.
IGNORED = [line.strip().rstrip("/") for line in
           _read(".gitignore").splitlines() if line.strip()]


def _allowed(name):
    return (name in ALLOWED_NAMES or name in BUILTINS
            or name in METRIC_NAMES or LINK_ID.fullmatch(name) is not None)


def _spans(doc):
    text = re.sub(r"^```.*?^```", "", _read(doc), flags=re.M | re.S)
    return [" ".join(s.split()) for s in re.findall(r"`([^`]+)`", text)]


def _module_file(dotted):
    base = os.path.join("src", *dotted.split("."))
    for candidate in (base + ".py", os.path.join(base, "__init__.py")):
        if candidate in BY_FILE:
            return candidate
    return None


def _repro_name_ok(dotted):
    """``repro.pkg.module[.name[.attr]]``: a module, then its names."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = _module_file(".".join(parts[:cut]))
        if module is None:
            continue
        rest = parts[cut:]
        if not rest:
            return True
        prefix = os.path.dirname(module) + os.sep
        in_package = module.endswith("__init__.py") and any(
            rest[0] in top for path, (_, top) in BY_FILE.items()
            if path.startswith(prefix))
        return ((rest[0] in BY_FILE[module][1] or in_package)
                and all(r in DEFINED for r in rest[1:]))
    return False


def _name_ok(dotted):
    if dotted in DEFINED or _allowed(dotted):
        return True
    parts = dotted.split(".")
    if parts[0] in FOREIGN_PREFIXES:
        return True
    if parts[0] == "repro":
        return _repro_name_ok(dotted)
    return all(p in DEFINED or p in MODULES or _allowed(p) for p in parts)


def _identifiers(doc):
    for span in _spans(doc):
        match = IDENT.fullmatch(span)
        if match and match.group(1).rsplit(".", 1)[-1] not in FILE_EXTENSIONS:
            yield match.group(1)


def _resolve(path):
    """The repository files ``path`` names (a glob may name several)."""
    if "/" not in path:
        found = [f for f in BY_FILE if os.path.basename(f) == path]
        if not found and os.path.exists(os.path.join(ROOT, path)):
            found = [path]
        return found
    for base in PATH_BASES:
        found = glob.glob(os.path.join(ROOT, base, path))
        if found:
            return [os.path.relpath(f, ROOT) for f in found]
    return []


def _repo_paths(doc):
    for span in _spans(doc):
        match = PATH.fullmatch(span)
        if match is None:
            continue
        path, name = match.groups()
        if "/" in path or path.endswith((".py", ".md")):
            yield path, name


@pytest.mark.parametrize("doc", DOCS)
def test_every_backticked_identifier_is_defined(doc):
    unknown = sorted({name for name in _identifiers(doc)
                      if not _name_ok(name)})
    assert not unknown, (
        f"{doc} names what no file under {', '.join(SCANNED)} defines: "
        f"{', '.join(unknown)}")


@pytest.mark.parametrize("doc", DOCS)
def test_every_backticked_path_exists(doc):
    missing = []
    for path, name in _repo_paths(doc):
        if any(fnmatch.fnmatch(path.rstrip("/"), p) for p in IGNORED):
            continue
        files = _resolve(path)
        if not files:
            missing.append(path)
        elif name and not any(
                all(part in BY_FILE.get(f, (set(),))[0]
                    for part in name.split(".")) for f in files):
            missing.append(f"{path}::{name}")
    assert not missing, f"{doc} names missing paths: {', '.join(missing)}"


def test_every_allowed_name_is_needed():
    used = {part for doc in DOCS for name in _identifiers(doc)
            for part in name.split(".")}
    stale = sorted(n for n in ALLOWED_NAMES if n not in used or n in DEFINED)
    assert not stale, f"ALLOWED entries unused or defined: {stale}"


def test_every_design_citation_names_a_heading():
    headings = set(HEADING.findall(_read("DESIGN.md")))
    sources = list(_python_files()) + [
        doc for doc in ("EXPERIMENTS.md", "ROADMAP.md")
        if os.path.exists(os.path.join(ROOT, doc))]
    dangling = []
    for path in sources:
        for cited in CITATION.findall(_read(path)):
            dangling.extend(f"{path}: {label}"
                            for label in re.findall(LABEL, cited)
                            if label not in headings)
    assert not dangling, f"citations of no DESIGN.md heading: {dangling}"
