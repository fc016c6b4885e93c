"""Every public name of the library has a caller in the program.

Walks the syntax trees of ``src/randerslab/*.py`` and collects each public
module-level function and class and each public method.  A name passes
when code under ``src/``, ``scripts/`` or ``perfbench/`` refers to it (as a
name, an attribute or an import) outside the name's own definition, or when
it is in ``TEST_ONLY`` below, whose names tests must refer to.  Identifier strings count only under
``scripts/`` and ``perfbench/``, where names are patched by ``getattr``; in
the library they are schema values such as a sampler kind, which would hide
a function of the same name.  A definition that only tests call fails here.

Every field of a library dataclass must also be read: some code under
``src/``, ``scripts/``, ``perfbench/`` or ``tests/`` loads an attribute of
that name, or, under ``scripts/`` and ``perfbench/``, names it in a string.
A field that is only ever set fails here.

No library module imports a ``_``-prefixed name from a sibling module: a
name another module needs is public.

Every private name of the library is used: a ``_``-prefixed module-level
function, class or constant, or a ``_``-prefixed method, that no code under
``src/`` refers to outside its own definition fails here.  Dunders such as
``__post_init__`` are called by Python and are not scanned.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "randerslab").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PROGRAM = sorted(p for d in ("src", "scripts", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))
# Program directories whose identifier strings count as references.
PATCHERS = ("scripts", "perfbench")

# Names no program code calls that tests still need, with the tests that
# call them; each must be referenced under tests/.
TEST_ONLY = {
    # test_acceptance.py::test_criterion_3_flow_correctness
    "step_flow",
    "constant_schedule",
    "linear_field",
    "hamiltonian",
    # test_acceptance.py::test_criterion_1_sphere_concentration
    "fit_decay_constant",
    # reference Jacobian for the analytic vjp in
    # test_geometry.py::TestVectorJacobianProduct and
    # test_cli.py::test_every_cli_field_is_componentwise_and_bounded (also
    # patched by perfbench)
    "jacobian_at",
    # test_observables.py::TestScaleRelation; the scale relation of the
    # gravity study, still to reach the CLI
    "scale_relation_check",
    # test_observables.py: the whole-array reference that the WEP march's
    # chunked running sums must equal bit for bit
    "center_of_mass",
}


@functools.cache
def _parse(path):
    """The syntax tree of ``path``, parsed once: a definition node found in
    it is then the very node that encloses its own references."""
    return ast.parse(path.read_text())


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _dataclass_fields(tree):
    """(class name, field name) of the fields of module-level dataclasses."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield node.name, item.target.id


def _definitions(tree, constants=False):
    """(name, node) of the module-level functions and classes and of the
    methods of module-level classes, and with ``constants`` of the names
    that module-level assignments bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if constants and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def _references(tree, strings):
    """(name, enclosing definition and assignment nodes) of every reference
    in ``tree``, identifier strings included when ``strings`` is true."""
    refs = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign,
                             ast.AnnAssign)):
            enclosing = enclosing + (node,)
        if isinstance(node, ast.Name):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        elif isinstance(node, ast.alias):
            refs.append((node.name, enclosing))
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            refs.append((node.value, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, ())
    return refs


def _public_names_without_caller():
    refs = {}
    for path in PROGRAM:
        strings = path.relative_to(ROOT).parts[0] in PATCHERS
        for name, enclosing in _references(_parse(path), strings):
            refs.setdefault(name, []).append(enclosing)
    missing = []
    for path in LIBRARY:
        for name, node in _definitions(_parse(path)):
            if name.startswith("_") or name in TEST_ONLY:
                continue
            if not any(node not in enclosing for enclosing in refs.get(name, [])):
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_public_name_has_a_program_caller():
    assert _public_names_without_caller() == []


def test_allowlisted_names_are_defined():
    defined = {name for path in LIBRARY
               for name, _ in _definitions(_parse(path))}
    assert TEST_ONLY <= defined


def test_allowlisted_names_are_referenced_by_tests():
    referenced = {name for path in TESTS
                  for name, _ in _references(_parse(path), strings=False)}
    assert sorted(TEST_ONLY - referenced) == []


def _private_names_without_use(library=LIBRARY):
    refs = {}
    for path in library:
        for name, enclosing in _references(_parse(path), strings=False):
            refs.setdefault(name, []).append(enclosing)
    return [f"{path.stem}.{name}" for path in library
            for name, node in _definitions(_parse(path), constants=True)
            if name.startswith("_") and not name.endswith("__")
            and all(node in enclosing for enclosing in refs.get(name, []))]


def test_every_private_name_is_used():
    assert _private_names_without_use() == []


def test_private_scan_finds_the_names(tmp_path):
    module = tmp_path / "dead.py"
    # _KEPT is used, by another definition; _helper only by itself
    module.write_text("_LIMIT = 1\n_KEPT = 2\n\n\ndef _helper():\n"
                      "    return _helper, _KEPT\n"
                      "\n\nclass Box:\n    def _unused(self):\n"
                      "        pass\n\n    def __post_init__(self):\n"
                      "        pass\n")
    assert _private_names_without_use([module]) == [
        "dead._LIMIT", "dead._helper", "dead._unused"]


def _fields_never_read():
    read = set()
    for path in PROGRAM + TESTS:
        strings = path.relative_to(ROOT).parts[0] in PATCHERS
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                read.add(node.value)
    return [f"{path.stem}.{cls}.{field}" for path in LIBRARY
            for cls, field in _dataclass_fields(_parse(path))
            if field not in read]


def test_every_dataclass_field_is_read():
    assert _fields_never_read() == []


def test_field_scan_finds_the_fields():
    fields = {(cls, field) for path in LIBRARY
              for cls, field in _dataclass_fields(_parse(path))}
    assert {("PerSizeResult", "sigma_x"), ("ScaleProfile", "rho0"),
            ("Preparation", "covariance")} <= fields


def _private_sibling_imports():
    """``module: sibling.name`` of each ``_``-prefixed name, dunders aside,
    that a library module imports from a sibling."""
    found = []
    for path in LIBRARY:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("randerslab")):
                found += [f"{path.stem}: {node.module}.{alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")
                          and not alias.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    assert _private_sibling_imports() == []
