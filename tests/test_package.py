"""The package's public surface: __all__ is exactly the pinned names, each
resolves, once, and has a docstring; no module of the package imports a
name it does not use; every module-level constant is read; and every
module-level function and class is referenced."""

import ast
from pathlib import Path

import riccstab

ROOT = Path(__file__).resolve().parents[1]

# the public API, sorted: a name added to or dropped from __all__ shows up here
PUBLIC_API = [
    "BlockSymmetric",
    "ClassMismatchError",
    "ClassTag",
    "ClassVerdict",
    "ContractError",
    "CorrelationWitness",
    "DecayReport",
    "DelayTrajectory",
    "DimensionError",
    "MatrixPair",
    "PMatrixReport",
    "RiccatiCertificate",
    "RiccstabError",
    "ScalingPair",
    "SizeGuardError",
    "SolveOptions",
    "Stability",
    "Verdict",
    "block_lmi",
    "classify",
    "correlation_form_bound",
    "correlation_form_bound_oracle",
    "dad_transform",
    "decay_check",
    "decay_report",
    "dpd_conjugate",
    "evaluate_class",
    "export_csv",
    "feedback_condition",
    "hadamard_congruence",
    "is_metzler",
    "is_nonnegative",
    "is_p_matrix",
    "lk_functional",
    "p_sign_witness",
    "simulate",
    "solve_diagonal",
    "verify_certificate",
]


def test_public_api_is_exactly_the_pinned_names():
    assert sorted(riccstab.__all__) == PUBLIC_API


def test_every_public_name_resolves_once():
    assert len(riccstab.__all__) == len(set(riccstab.__all__))
    namespace = {}
    exec("from riccstab import *", namespace)  # raises on a name the package lacks
    assert set(riccstab.__all__) <= set(namespace)


def test_every_public_name_has_a_docstring():
    """Its own docstring: inspect.getdoc would hand a class one of a base."""
    missing = [name for name in riccstab.__all__ if not (getattr(riccstab, name).__doc__ or "").strip()]
    assert missing == []


def test_no_module_imports_a_name_it_does_not_use():
    """An import is used when its bound name is read anywhere in the module.
    __init__.py, which imports to re-export, and lines marked noqa are
    skipped. Likewise every module-level private def or class must be
    referenced, by name or as an attribute, somewhere in the package."""
    unused = []
    private = {}
    referenced = set()
    for path in sorted(Path(riccstab.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        referenced |= used | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                private[node.name] = f"{path.name}:{node.lineno}"
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if "noqa" not in lines[alias.lineno - 1]:
                        imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    unused += [f"{where} {name}" for name, where in private.items() if name not in referenced]
    assert unused == []


def test_every_module_constant_is_read():
    """A module-level UPPER_CASE name of the package, leading underscores
    aside, must be read, by name or as an attribute, somewhere in src/,
    tests/ or perfbench/: a constant nothing reads is a leftover."""
    constants = {}
    for path in sorted(Path(riccstab.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                constants |= {name: f"{path.name}:{node.lineno}" for name in names if name.lstrip("_").isupper()}
    read = set()
    for path in sorted(p for folder in ("src", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [f"{where} {name}" for name, where in constants.items() if name not in read] == []


def test_every_module_function_and_class_is_referenced():
    """A module-level def or class of the package must be referenced, by
    name or as an attribute, outside its own body: one in __all__ somewhere
    in src/, tests/ or perfbench/, any other in src/ or perfbench/. One that
    nothing refers to is a leftover, and so is one that only tests call."""
    package = Path(riccstab.__file__).parent
    defined = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.name}:{node.lineno}"
    referenced = {"src": set(), "tests": set(), "perfbench": set()}
    for folder, names in referenced.items():
        for path in sorted((ROOT / folder).rglob("*.py")):
            for top in ast.parse(path.read_text()).body:
                own = top.name if path.parent == package and isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
                for node in ast.walk(top):
                    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                    if name is not None and name != own:
                        names.add(name)
    outside_tests = referenced["src"] | referenced["perfbench"]
    anywhere = outside_tests | referenced["tests"]
    leftovers = [
        f"{where} {name}"
        for name, where in defined.items()
        if name not in (anywhere if name in riccstab.__all__ else outside_tests)
    ]
    assert leftovers == []
