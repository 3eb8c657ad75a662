import ast
import importlib
import inspect
import io
import pathlib
import pkgutil
import re
import tokenize

import chainlogic

_MODULES = [chainlogic] + [
    importlib.import_module(f"chainlogic.{info.name}")
    for info in pkgutil.iter_modules(chainlogic.__path__)
]
_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = pathlib.Path(chainlogic.__file__).resolve().parent

# A private name cited in code text, and its first component: ``_name`` in
# the package's docstrings and comments, `_name` in the README.
_IN_SOURCE = re.compile(r"``(_\w+)(?:\.\w+)*``")
_IN_README = re.compile(r"(?<!`)`(_\w+)(?:\.\w+)*`(?!`)")


def _known_names() -> set[str]:
    """Every attribute of a chainlogic module or of a class defined in one,
    instance attributes assigned as ``self.name`` included."""
    names = set()
    for module in _MODULES:
        names.update(dir(module))
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                names.update(dir(obj))
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                names.add(node.attr)
    return names


def _source_citations():
    """(file, line, name) for each private name cited in a docstring, string
    or comment of the package."""
    for path in sorted(_SRC.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        for tok in tokens:
            if tok.type in (tokenize.STRING, tokenize.COMMENT):
                for m in _IN_SOURCE.finditer(tok.string):
                    line = tok.start[0] + tok.string.count("\n", 0, m.start())
                    yield path.name, line, m.group(1)


def test_cited_private_names_exist():
    known = _known_names()
    # Module functions, class attributes and instance attributes resolve;
    # a name defined nowhere does not.
    assert {"_step", "_block", "_Plan", "_with_atoms", "_memo"} <= known
    assert "_no_such_helper" not in known

    cited = list(_source_citations())
    assert cited
    assert [c for c in cited if c[2] not in known] == []

    readme = (_ROOT / "README.md").read_text().splitlines()
    stale = [
        ("README.md", n, m.group(1))
        for n, line in enumerate(readme, 1)
        for m in _IN_README.finditer(line)
        if m.group(1) not in known
    ]
    assert stale == []
