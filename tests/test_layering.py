"""The package's modules import one another in layers, read off their
module-level import statements with ast.

zmod is the arithmetic: it imports nothing from the package but errors,
defines no orbit walk and reads no cap. chain, the stabilizer chain, sits on
zmod alone. No module-level import closes a cycle. An import inside a
function (cli's of verify) is left out: it runs only when that function does.
"""

import ast
import os
from graphlib import TopologicalSorter

import modscreen

PACKAGE = os.path.dirname(modscreen.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))


def parse(module):
    with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def package_imports(module):
    """The package modules that module imports at module level."""
    out = set()
    for node in parse(module).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else
                       [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.update(node.module.split(".")[1:2]
                       if node.module.startswith("modscreen.") else [])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("modscreen."))
    return out


def test_zmod_imports_only_errors_from_the_package():
    assert package_imports("zmod") == {"errors"}


def test_chain_imports_only_zmod_and_errors():
    assert "chain" in MODULES
    assert package_imports("chain") <= {"zmod", "errors"}


def test_zmod_defines_no_orbit_walk_and_reads_no_cap():
    tree = parse("zmod")
    functions = {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {name for name in functions if "orbit" in name}
    assert not functions & {"quadratic_pair_orbits", "_cycle_split",
                            "_projective_form"}
    identifiers = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    identifiers |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    identifiers |= {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)}
    assert not {name for name in identifiers if name.lower().endswith("cap")}


def test_module_level_imports_have_no_cycle():
    graph = {module: package_imports(module) for module in MODULES}
    assert set().union(*graph.values()) <= set(MODULES)
    # static_order raises graphlib.CycleError on a cycle
    assert set(TopologicalSorter(graph).static_order()) == set(MODULES)
