"""Guards over the package source itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cwsense"


def test_no_assert_statements():
    """Invariants must be exceptions: `python -O` strips assert."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_field_element_stays_in_field_module():
    """FieldElement is the schoolbook reference: library code outside
    field.py works on int-coded elements and never names it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.alias):
                names.append(node.name)
            if "FieldElement" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_regex_and_one_line_splitter():
    """Files are split into lines in one place, textio.read_lines: no
    module imports re, and only textio.py calls splitlines."""
    imports, splits = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            if any(m == "re" or m.startswith("re.") for m in modules):
                imports.append(f"{path.name}:{node.lineno}")
            if (getattr(node, "attr", None) == "splitlines"
                    or getattr(node, "id", None) == "splitlines"):
                splits.append(path.name)
    assert imports == []
    assert set(splits) == {"textio.py"}


def test_analyze_and_recover_split_each_file_once(tmp_path, monkeypatch):
    from cwsense import cli, textio
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "sts", "--n", "9", "--out", "c.code",
                     "--emit-matrix", "s.matrix"]) == 0
    assert cli.main(["construct", "sts", "--n", "9", "--matrix-format",
                     "dense-csv", "--emit-matrix", "d.csv"]) == 0
    calls = []
    real = textio.read_lines

    def counted(text):
        calls.append(len(text))
        return real(text)
    for name, module in list(sys.modules.items()):  # wherever it is looked up
        if name.startswith("cwsense") and getattr(module, "read_lines",
                                                  None) is real:
            monkeypatch.setattr(module, "read_lines", counted)
    for argv in (["analyze", "c.code"], ["analyze", "s.matrix"],
                 ["analyze", "d.csv"],
                 ["recover", "s.matrix", "--k-max", "1", "--trials", "2"],
                 ["recover", "d.csv", "--k-max", "1", "--trials", "2"]):
        calls.clear()
        assert cli.main(argv) == 0, argv
        assert calls == [(tmp_path / argv[1]).stat().st_size], argv


def test_textio_alone_touches_files():
    """Only textio.py imports pathlib, calls open (as a name or an
    attribute, os.open and io.open too) or calls splitlines."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            called = (isinstance(node, ast.Call) and {
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)} & {"open", "splitlines"})
            if called or any(m.split(".")[0] == "pathlib" for m in modules):
                found.add(path.name)
    assert found == {"textio.py"}


def test_package_binds_only_its_version():
    """cwsense/__init__.py re-exports nothing: its one public name is
    __version__, and it imports no module."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = [t.id for node in tree.body if isinstance(node, ast.Assign)
             for t in node.targets]
    assert bound == ["__version__"]
    assert all(isinstance(node, (ast.Expr, ast.Assign)) for node in tree.body)


def test_one_admission_function():
    """BudgetError is raised in errors.admit alone, and the module-level
    caps are its two budgets and field.ORDER_CAP, the one proxy cap."""
    raises, caps, admit = [], [], None
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "admit":
                admit = (path.name, node.lineno, node.end_lineno)
            if isinstance(node, ast.Raise):
                exc = getattr(node.exc, "func", node.exc)
                if getattr(exc, "id", None) == "BudgetError":
                    raises.append((path.name, node.lineno))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            caps += [f"{path.stem}.{t.id}" for t in targets
                     if isinstance(t, ast.Name)
                     and t.id.endswith(("_CAP", "_BUDGET"))]
    assert admit is not None and admit[0] == "errors.py"
    assert len(raises) == 1
    assert raises[0][0] == admit[0] and admit[1] < raises[0][1] <= admit[2]
    assert sorted(caps) == ["errors.BYTE_BUDGET", "errors.WORK_BUDGET",
                            "field.ORDER_CAP"]


def _modules(node):
    """The top-level module names an import node binds, else []."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [(node.module or "").split(".")[0]]
    return []


def _pool_users():
    """The modules that import cwsense.pool."""
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level
                    and (node.module == "pool" or node.module is None
                         and "pool" in {a.name for a in node.names})):
                users.add(path.name)
    return users


def test_only_recovery_forks():
    """The one place that forks is pool.py, which alone imports pickle or
    signal and owns its children's lifetime, and recovery.py is the one
    module that hands it units; recovery.py itself imports none of what
    the pool uses."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if ({"pickle", "signal"} & set(_modules(node))
                    or isinstance(node, ast.Call) and "fork" in {
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)}):
                found.add(path.name)
    assert found == {"pool.py"}
    assert _pool_users() == {"recovery.py"}
    recovery = ast.parse((SRC / "recovery.py").read_text())
    imported = {m for node in ast.walk(recovery) for m in _modules(node)}
    assert not imported & {"os", "ctypes", "pickle", "warnings", "signal"}


def test_only_recovery_uses_ctypes():
    """The one foreign call is the OpenBLAS thread count in pool.py, which
    recovery.py alone uses: no other module imports or names ctypes."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if ("ctypes" in _modules(node)
                    or getattr(node, "id", None) == "ctypes"):
                found.add(path.name)
    assert found == {"pool.py"}
    assert _pool_users() == {"recovery.py"}
