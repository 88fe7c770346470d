"""Every function and class in the package is used by the package.

A definition whose only callers are tests is a second copy of the program
that no run executes; it belongs in ``tests/oracles.py``. The scan reads
``src/reverb`` with ``ast``: a definition counts as used when its name is
read, as a name or as an attribute, anywhere in the package outside its own
body. Dunder methods are Python's protocol and always count as used.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reverb"

# Definitions no package code names, each with the reason it stays.
ALLOWED = {
    "sensing.SensingAgent._make": "the named-tuple protocol calls it (_replace, copy)",
    "control.ActionVector._make": "the named-tuple protocol calls it (_replace, copy)",
    "scheduler.ScheduleResult.blind": "perfbench reads it",
    "estimator.posterior_cov": "a perfbench SPANS entry wraps it",
    "estimator.FusionBatch.from_observations": "a perfbench SPANS entry wraps it",
    "channel.uplink_outcome": "a perfbench SPANS entry wraps it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(sources: dict[str, str]) -> list[str]:
    """``module.qualified.name`` of each definition in ``sources`` that no other code there names.

    ``sources`` maps a module name to its source text.
    """
    defs = []  # (qualified name, node)
    reads = []  # (name read, the definitions enclosing the read)

    def walk(node, module, prefix, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qualname = f"{prefix}.{child.name}"
                defs.append((f"{module}.{qualname[1:]}", child))
                walk(child, module, qualname, enclosing + (child,))
                continue
            if isinstance(child, ast.Name):
                reads.append((child.id, enclosing))
            elif isinstance(child, ast.Attribute):
                reads.append((child.attr, enclosing))
            walk(child, module, prefix, enclosing)

    for module, source in sources.items():
        walk(ast.parse(source), module, "", ())
    return [
        name
        for name, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(read == node.name and node not in enclosing for read, enclosing in reads)
    ]


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_every_package_definition_is_used_by_the_package():
    found = unreferenced(package_sources())
    assert sorted(found) == sorted(ALLOWED), (
        "a definition no package code names is test-only; move it to tests/oracles.py "
        f"or allow it with a reason: new {sorted(set(found) - set(ALLOWED))}, "
        f"no longer unreferenced {sorted(set(ALLOWED) - set(found))}"
    )


def test_the_scan_finds_a_helper_only_its_own_body_names():
    source = '''
class Model:
    def __init__(self):
        self.run()

    def run(self):
        return helper(1)

    def spare(self):
        return self.spare()


def helper(n):
    return n


def recursive(n):
    return recursive(n - 1) if n else 0
'''
    assert unreferenced({"m": source}) == ["m.Model", "m.Model.spare", "m.recursive"]
