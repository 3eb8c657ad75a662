import ast
import importlib
import inspect
import io
import json
import pathlib
import pkgutil
import re
import shlex
import tokenize

import chainlogic
from chainlogic import cli, corpus, script_to_dict

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
    assert {"_step", "_Plan", "_check_channel", "_memo"} <= known
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


def _readme_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the README heading."""
    text = (_ROOT / "README.md").read_text()
    after = text[text.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", after, re.S).group(1)


def test_readme_quick_tour_runs():
    exec(_readme_block("## Library quick tour", "python"), {})


def test_readme_cli_examples_print_what_they_say(tmp_path, monkeypatch):
    # Each README command line with a "# prints X" comment, continuation
    # lines joined; the proof script it names is the corpus's prop4.
    block = _readme_block("## CLI", "sh").replace("\\\n", " ")
    examples = re.findall(r"^chainlogic (.*?)\s+# prints (\S+)$", block, re.M)
    assert {printed for _, printed in examples} == {"{2}", "true", "valid", "accepted"}
    doc = script_to_dict(corpus()["prop4"])
    (tmp_path / "prop4.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for command, printed in examples:
        out, err = io.StringIO(), io.StringIO()
        assert cli.run_cli(shlex.split(command), stdout=out, stderr=err) == 0, command
        assert (out.getvalue(), err.getvalue()) == (printed + "\n", ""), command


def test_package_has_no_unused_imports():
    # __init__.py imports to re-export, so it is left out.
    unused = []
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append((path.name, node.lineno, name))
    assert unused == []


def test_package_has_no_unused_private_helpers():
    # A private module function or class, or a private method that is not
    # a dunder, must be referenced somewhere in the package apart from its
    # definition: by name, as an attribute, or in an import. Tests and the
    # benchmark scripts do not count.
    defined, referenced = [], set()
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        helpers = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        helpers += [
            n
            for c in tree.body if isinstance(c, ast.ClassDef)
            for n in c.body if isinstance(n, ast.FunctionDef)
        ]
        defined += [
            (path.name, n.lineno, n.name)
            for n in helpers
            if n.name.startswith("_") and not n.name.endswith("__")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.split(".")[-1])
    assert len(defined) > 50
    assert [d for d in defined if d[2] not in referenced] == []


def test_bench_reads_only_library_names():
    # The benchmark scripts call the library through the package, which
    # they name pkg, after importing chainlogic.cli as this module does;
    # every pkg.<name> they read must exist, or a traced pass fails.
    read = {
        (path.name, node.attr)
        for path in sorted((_ROOT / "bench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "pkg"
    }
    assert {"enumerate_protocols", "runs_fixing", "sample_protocol", "candidate_count"} <= {
        name for _, name in read
    }
    assert [(f, name) for f, name in sorted(read) if not hasattr(chainlogic, name)] == []
