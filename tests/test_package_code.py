"""Every function, class and field in the package is used by the package.

A definition whose only callers are tests is a second copy of the program
that no run executes; it belongs in ``tests/oracles.py``. The scan reads
``src/reverb`` with ``ast``: a definition counts as used when its name is
read, as a name or as an attribute, anywhere in the package outside its own
body. Dunder methods are Python's protocol and always count as used. A name
passed on as a keyword argument, ``M(f=helper)``, counts as a use only when
package code calls the keyword, as a name (``f(x)``) or an attribute
(``self.f(x)``). Any call of that keyword's name counts, wherever it is, and
a function passed on positionally, or stored in a container, still counts as
used even when nothing ever calls it. A keyword only the standard library
calls, ``field(default_factory=ChannelParams)``, is no use, so such a class
counts through its other reads (here the field's annotation).

A field, a name annotated in a class body (a dataclass or named-tuple
field), that only tests read is state every run builds and no run uses. It
counts as used when its name is read as an attribute anywhere in the
package. The match is by name alone, so a field that shares its name with
an attribute read elsewhere is invisible to the scan: a record field
``seed`` would count as read through ``cfg.seed``.

Run state lives with its owner: no function rebinds a module global
(a ``global`` statement), and no frozen dataclass holds a mutable field
(``field(default_factory=dict)``, ``list`` or ``set``), which its freezing
would hide. A frozen dataclass's factory of another class, as ``RunConfig``
builds its frozen config sections, is not flagged.
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

# Fields no package code reads, each with the reason it stays.
ALLOWED_FIELDS = {
    "channel.LinkBudget.theta": "A1 checks the Lambert-W identity on it",
    "channel.LinkOutcome.latency_s": "uplink_outcome's result, which a perfbench SPANS entry wraps",
    "channel.LinkOutcome.fading": "uplink_outcome's result, which a perfbench SPANS entry wraps",
    "control.EpisodeStats.episode": "dataclasses.asdict writes it to learning_curve.csv",
    "control.EpisodeStats.shaped_return": "dataclasses.asdict writes it to learning_curve.csv",
    "control.EpisodeStats.env_return": "dataclasses.asdict writes it to learning_curve.csv",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(sources: dict[str, str]) -> list[str]:
    """``module.qualified.name`` of each definition in ``sources`` that no other code there names.

    ``sources`` maps a module name to its source text.
    """
    defs = []  # (qualified name, node)
    reads = []  # (name read, the definitions enclosing the read)
    passed = []  # (name passed on, the keyword it is passed as, the definitions enclosing it)
    called = set()  # names called, as a name or an attribute

    def walk(node, module, prefix, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qualname = f"{prefix}.{child.name}"
                defs.append((f"{module}.{qualname[1:]}", child))
                walk(child, module, qualname, enclosing + (child,))
                continue
            if isinstance(child, ast.Call):
                called.add(getattr(child.func, "id", getattr(child.func, "attr", None)))
            if (isinstance(child, ast.keyword) and child.arg is not None
                    and isinstance(child.value, (ast.Name, ast.Attribute))):
                value = child.value
                passed.append((getattr(value, "id", getattr(value, "attr", None)), child.arg, enclosing))
                walk(value, module, prefix, enclosing)
                continue
            if isinstance(child, ast.Name):
                reads.append((child.id, enclosing))
            elif isinstance(child, ast.Attribute):
                reads.append((child.attr, enclosing))
            walk(child, module, prefix, enclosing)

    for module, source in sources.items():
        walk(ast.parse(source), module, "", ())
    reads += [(name, enclosing) for name, keyword, enclosing in passed if keyword in called]
    return [
        name
        for name, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(read == node.name and node not in enclosing for read, enclosing in reads)
    ]


def unread_fields(sources: dict[str, str]) -> list[str]:
    """``module.Class.field`` of each name annotated in a class body that no code in ``sources`` reads.

    A field is read when its name is loaded as an attribute (``x.name``)
    anywhere in ``sources``, matched by name alone.
    """
    fields = []  # (qualified name, field name)
    reads = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                fields += [
                    (f"{module}.{node.name}.{stmt.target.id}", stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return [name for name, field in fields if field not in reads]


def shared_state(sources: dict[str, str]) -> list[str]:
    """``module.qualname`` of each function with a ``global`` statement and each mutable field of a frozen dataclass."""
    found = []

    def frozen_dataclass(node) -> bool:
        return any(
            isinstance(d, ast.Call) and getattr(d.func, "id", getattr(d.func, "attr", None)) == "dataclass"
            and any(k.arg == "frozen" and getattr(k.value, "value", False) is True for k in d.keywords)
            for d in node.decorator_list
        )

    def mutable_factory(value) -> bool:
        return isinstance(value, ast.Call) and any(
            k.arg == "default_factory" and getattr(k.value, "id", None) in ("dict", "list", "set")
            for k in value.keywords
        )

    def walk(node, module, prefix, frozen):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                is_frozen = isinstance(child, ast.ClassDef) and frozen_dataclass(child)
                walk(child, module, f"{prefix}.{child.name}", is_frozen)
                continue
            if isinstance(child, ast.Global):
                found.append(f"{module}{prefix}")
            elif frozen and isinstance(child, ast.AnnAssign) and mutable_factory(child.value):
                found.append(f"{module}{prefix}.{child.target.id}")
            walk(child, module, prefix, frozen)

    for module, source in sources.items():
        walk(ast.parse(source), module, "", False)
    return found


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


def test_the_scan_counts_a_keyword_pass_on_only_when_the_keyword_is_called():
    source = '''
class M:
    def __init__(self, f):
        self.f = f


def build():
    def helper(x):
        return x

    return M(f=helper)
'''
    assert unreferenced({"m": source}) == ["m.build", "m.build.helper"]
    # A call of the keyword, as an attribute or as a name, makes the pass-on a use.
    by_attribute = source + "\n\ndef use(m):\n    return m.f(1)\n"
    assert unreferenced({"m": by_attribute}) == ["m.build", "m.use"]
    by_name = source + "\n\ndef use(f):\n    return f(1)\n"
    assert unreferenced({"m": by_name}) == ["m.build", "m.use"]


def test_every_package_field_is_read_by_the_package():
    found = unread_fields(package_sources())
    assert sorted(found) == sorted(ALLOWED_FIELDS), (
        "a field no package code reads is test-only state; delete it "
        f"or allow it with a reason: new {sorted(set(found) - set(ALLOWED_FIELDS))}, "
        f"no longer unread {sorted(set(ALLOWED_FIELDS) - set(found))}"
    )


def test_the_field_scan_finds_fields_only_written_or_never_named():
    model = '''
from dataclasses import dataclass
from typing import NamedTuple


@dataclass
class Record:
    seed: int
    kept: int
    written: int = 0
    plain = 1


class Budget(NamedTuple):
    prbs: int
    spare: float


def use(record, budget, cfg):
    record.written = budget.prbs + record.kept
    local: int = cfg.seed
    return local
'''
    # ``Record.seed`` counts as read through ``cfg.seed``; an unannotated class attribute is no field.
    assert unread_fields({"m": model}) == ["m.Record.written", "m.Budget.spare"]
    # A read in another module counts.
    assert unread_fields({"m": model, "n": "def f(b):\n    return b.spare\n"}) == ["m.Record.written"]


def test_no_run_state_is_held_away_from_its_owner():
    found = shared_state(package_sources())
    assert found == [], f"a global statement or a mutable field of a frozen dataclass: {found}"


def test_the_state_scan_finds_globals_and_mutable_fields_of_frozen_dataclasses():
    model = '''
import dataclasses
from dataclasses import dataclass, field

_last = None


def remember(x):
    global _last
    _last = x


@dataclass(frozen=True)
class Fleet:
    agents: tuple
    memo: dict = field(default_factory=dict, init=False)
    seen: list = dataclasses.field(default_factory=list)

    def method(self):
        cache: dict = field(default_factory=set)
        return cache


@dataclass(frozen=True)
class Config:
    section: Fleet = field(default_factory=Fleet)


@dataclass
class Summary:
    hist: dict = field(default_factory=dict)
'''
    # A factory of another class, a mutable field of an unfrozen dataclass and a local are not flagged.
    assert shared_state({"m": model}) == ["m.remember", "m.Fleet.memo", "m.Fleet.seen"]
