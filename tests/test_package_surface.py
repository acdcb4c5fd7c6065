"""The package exports what the program runs.

Every public name in the ``rainbowcw`` namespace must be used by another
part of the program (a module of ``src/rainbowcw`` other than
``__init__.py``, outside the name's own definition) or by the benchmark.
A helper that only tests call belongs beside the tests that call it.

The same holds for options: every optional parameter of a public function
must be passed, by keyword or by position, by some call in the program or
the benchmark.  An option that only tests set is a second code path that
the program never runs.
"""

import ast
import inspect
import re
from pathlib import Path

import rainbowcw

ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in the program calls, each with its reason.
ALLOWED = {
    "verify_differential_formula": "checks the paper's closed form of the sparse "
    "Eagon-Northcott differential (tests/test_acceptance.py, criterion 3)",
    "verify_multidegree_bijection": "checks the paper's bijection between basis "
    "elements and valid block monomials (tests/test_acceptance.py, criterion 3)",
    "betti_table_formula": "checks the paper's closed-form Betti table of a "
    "linear rainbow DFI (tests/test_acceptance.py, criterion 6)",
    "is_linear_strand_of_module": "checks the paper's homological criterion for "
    "the linear strand of a module (tests/test_acceptance.py, criterion 5)",
    "taylor_complex": "the Taylor resolution of any monomial ideal; the "
    "console-script CI job checks the installed sweep on it",
}


# Optional parameters of public functions that no call in the program or the
# benchmark passes, each with its reason.
ALLOWED_OPTIONS = {
    ("random_term_order", "max_weight"): "the test seam that forces weight "
    "ties, so that the lexicographic tiebreak is exercised",
    ("is_linear_strand_of_module", "p"): "a paper check (tests/test_acceptance.py, "
    "criterion 5), run at a second prime by tests/test_complexes.py",
    ("verify_multidegree_bijection", "cx"): "a paper check (tests/test_acceptance.py, "
    "criterion 3) that reuses a complex the caller has built",
    ("complementary_ideal", "squarefree"): "complementary_ideal itself is kept "
    "only because the benchmark wraps it (ROADMAP item 1, 'Unwrap what only the "
    "tracer names')",
}


def _public_names():
    return sorted(
        name for name, value in vars(rainbowcw).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )


def _names_used_in_src():
    """The names each program module reads or calls, not counting those in
    a top-level definition of the same name or in imports."""
    used = set()
    for path in (ROOT / "src" / "rainbowcw").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names.discard(statement.name)
            used |= names
    return used


def _unused(names):
    """The names that neither the program's modules nor the benchmark use."""
    used = _names_used_in_src()
    bench = "\n".join(p.read_text() for p in (ROOT / "benchmark").glob("*.py"))
    return [
        name for name in names
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", bench)
    ]


def test_every_public_name_is_used_by_the_program():
    unused = _unused(name for name in _public_names() if name not in ALLOWED)
    assert unused == [], f"exported but used only by tests: {unused}"


def test_the_allowlist_holds_only_unused_exports():
    assert set(ALLOWED) <= set(_public_names())
    assert _unused(ALLOWED) == list(ALLOWED)


def _options():
    """(function, parameter, position) for each optional parameter of each
    public function; the position is None for a keyword-only parameter."""
    out = []
    for name in _public_names():
        value = getattr(rainbowcw, name)
        if not inspect.isfunction(value):
            continue
        for k, param in enumerate(inspect.signature(value).parameters.values()):
            if param.default is not param.empty:
                position = k if param.kind is param.POSITIONAL_OR_KEYWORD else None
                out.append((name, param.name, position))
    return out


def _calls_outside_tests():
    """The calls in the program's modules and the benchmark, by the name they
    call, not counting calls inside a top-level definition of that name."""
    calls = {}
    paths = [*(ROOT / "src" / "rainbowcw").glob("*.py"), *(ROOT / "benchmark").glob("*.py")]
    for path in paths:
        for statement in ast.parse(path.read_text()).body:
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name and name != getattr(statement, "name", None):
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call, param, position):
    """Whether a call may pass the parameter: by keyword, by position, or
    through a ``*args`` or ``**kwargs``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return position is not None and (len(call.args) > position or starred)


def _unset_options():
    calls = _calls_outside_tests()
    return [
        (name, param) for name, param, position in _options()
        if not any(_passes(call, param, position) for call in calls.get(name, []))
    ]


def test_every_option_is_passed_by_the_program():
    unset = [option for option in _unset_options() if option not in ALLOWED_OPTIONS]
    assert unset == [], f"options that only tests pass: {unset}"


def test_the_option_allowlist_holds_only_unset_options():
    assert set(ALLOWED_OPTIONS) <= set(_unset_options())
