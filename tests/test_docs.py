import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pointseg"

# A backticked private name, bare (`_name`) or under its module (`module._name`).
PRIVATE_NAME = re.compile(r"`(?:([A-Za-z]\w*)\.)?(_[A-Za-z]\w*)`")


def module_level_names(path):
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_readme_names_only_private_names_the_package_defines():
    defined = {path.stem: module_level_names(path) for path in PACKAGE.glob("*.py")}
    anywhere = set().union(*defined.values())
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = PRIVATE_NAME.findall(readme)
    assert named, "README.md names no private name: the pattern has drifted"
    stale = sorted(f"{module}.{name}" if module else name for module, name in named
                   if name not in (defined.get(module, set()) if module else anywhere))
    assert not stale, f"README.md names what src/pointseg/ no longer defines: {stale}"


def test_readme_python_blocks_run():
    # Each block runs in a fresh namespace against the package under test, so
    # a README that imports a name the package no longer exports fails here.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks, "README.md holds no python block: the pattern has drifted"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def imported_names(tree):
    """Each name an import binds in a module, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_package_modules_use_every_name_they_import():
    # The unused-import check, on the stdlib alone. __init__.py imports names
    # to re-export them, so it is exempt.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported_names(tree) if name not in used]
    assert not unused, f"src/pointseg/ imports names it never uses: {unused}"


def mentioned_names(tree):
    """Each name a tree's code mentions: a variable, an attribute, an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_package_function_and_class_is_named_outside_its_def():
    # The orphan guard: a module-level function or class of src/pointseg/ must
    # be named beyond its own def in src/, tests/, demos/ or README.md's code
    # (a recursive call is not a use, nor is a re-export in __init__.py).
    mentions, defined = collections.Counter(), []
    for path in sorted(p for top in ("src", "tests", "demos") for p in (ROOT / top).rglob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mentions.update(mentioned_names(tree))
        if path.parent == PACKAGE:
            defined += [(path.name, node) for node in tree.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert len(defined) > 100, "src/pointseg/ defines few functions: the walk has drifted"
    code = re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text(encoding="utf-8"))
    readme = {word for span in code for word in re.findall(r"\w+", span)}
    orphans = [f"{module}: {node.name}" for module, node in defined
               if mentions[node.name] == list(mentioned_names(node)).count(node.name)
               and node.name not in readme]
    assert not orphans, f"src/pointseg/ defines what nothing names: {orphans}"
