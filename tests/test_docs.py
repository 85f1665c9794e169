import ast
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
