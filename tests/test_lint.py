"""Lint gates: every name a module of the package imports is used in it,
every private module-level helper and private method is read by some module
of the package, every public function, class and method of a public class
is read by some module of the package or of the benchmark (but a short
allow-list, each entry with its reason), every function of the test oracles
is reached from a test module,
every parameter of a module-level function or of a method of a
module-level class (but self and cls) is read by its body, every option
of a module-level function is set by some caller in the package or the
benchmark, every
for-loop target is read by the loop's body, every attribute that the
package assigns is read by the package or the benchmark, every module
stays below the token count at which CPython's parser doubles its token
array, no module calls numpy's selection or sort functions, no class
body assigns a dict, list or set display, and every name that a module
writes in double backquotes is one that the package defines."""

import ast
import builtins
import io
import re
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qrdyn"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names listed in __all__ are re-exports
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    src = "import math\nfrom typing import List, Optional\nx: Optional[int] = math.pi\n"
    assert unused_imports(src) == [(2, "List")]


def test_all_counts_as_use():
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source):
    """(line, name) of each module-level private function, class or
    constant, and of each private method of a module-level class (one
    leading underscore), that the module defines."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            out += [(m.lineno, m.name) for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and m.name.startswith("_") and not m.name.startswith("__")]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(node.lineno, n) for n in names
                if n.startswith("_") and not n.startswith("__")]
    return out


def attribute_reads(source):
    """Every name that the source (a module's text or a parsed node) reads
    as an attribute or imports."""
    refs = set()
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def referenced_names(source):
    """Every name that the source (a module's text or a parsed node) reads,
    as a name, an attribute or an imported name."""
    tree = ast.parse(source) if isinstance(source, str) else source
    return attribute_reads(tree) | {node.id for node in ast.walk(tree)
                                    if isinstance(node, ast.Name)
                                    and not isinstance(node.ctx, ast.Store)}


def orphaned_helpers(sources):
    """(module, line, name) of each private definition that no module of
    ``sources`` (module name -> source) reads."""
    refs = set().union(*map(referenced_names, sources.values()))
    return sorted((module, line, name) for module, src in sources.items()
                  for line, name in private_definitions(src) if name not in refs)


def test_detects_an_orphaned_helper():
    # GlobalMap._pick_cell once outlived its last caller in the package
    sources = {"a": "_K = 2\n\ndef _used():\n    return _K\n\ndef _dead():\n    pass\n\n"
                    "class _Old:\n    pass\n\nx = _used()\n",
               "b": "from .a import _Other\n\nclass Map:\n    def __init__(self):\n"
                    "        self._step()\n\n    def _step(self):\n        pass\n\n"
                    "    def _pick_cell(self):\n        pass\n"}
    assert orphaned_helpers(sources) == [("a", 6, "_dead"), ("a", 9, "_Old"),
                                         ("b", 10, "_pick_cell")]


def test_no_orphaned_private_helpers():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_helpers(sources) == []


def public_definitions(source):
    """(line, name) of each public module-level function or class, and of
    each public method of a public module-level class (named
    Class.method), that the module defines."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(m.lineno, f"{node.name}.{m.name}") for m in node.body
                    if isinstance(m, functions) and not m.name.startswith("_")]
    return out


def public_name_violations(sources, readers, allowed):
    """(unreached, stale): (module, line, name) of each public definition
    of a module of ``sources`` (module name -> source) that no source of
    ``sources`` or ``readers`` reads, a function or class by its name, a
    method without its class as an attribute or an imported name only, and
    that ``allowed`` ({(module, name): reason}) does not list; and each
    (module, name) of ``allowed`` that is no such definition, because a
    caller now reads it or it is gone."""
    texts = [*sources.values(), *readers]
    names = set().union(*map(referenced_names, texts))
    attributes = set().union(*map(attribute_reads, texts))
    found = [(module, line, name) for module, src in sources.items()
             for line, name in public_definitions(src)
             if name.rpartition(".")[2] not in (attributes if "." in name else names)]
    unreached = sorted(f for f in found if (f[0], f[2]) not in allowed)
    stale = sorted(set(allowed) - {(module, name) for module, _, name in found})
    return unreached, stale


# public names that nothing in the package or the benchmark reads yet, each
# with the caller that is planned for it
UNREACHED_PUBLIC = {
    ("dynamics.py", "orbit_csv"): "the per-step CSV that a `qrdyn orbit` command will print",
    ("dynamics.py", "rates_csv"): "the rate-series CSV that a `qrdyn rates` command will print",
    ("example_maps.py", "example_three"):
        "the patched map with a fixed point, for `qrdyn orbit` and `qrdyn rates`",
    ("zorich.py", "F_jacobian"):
        "the per-step Jacobian above L of a dilatation series of the iterates",
}


def test_detects_an_unreached_public_name():
    # StarShape.polyhedron and pieces.frame_for_polygon once wrapped code
    # that the package called directly, and only tests called them
    sources = {"a": "def used():\n    pass\n\ndef frame_for_polygon():\n    pass\n\n"
                    "def bench_only():\n    pass\n\ndef later():\n    pass\n\n"
                    "def _private():\n    pass\n\nclass StarShape:\n"
                    "    def area(self):\n        pass\n\n"
                    "    def polyhedron(cls):\n        pass\n\n"
                    "class _Hidden:\n    def method(self):\n        pass\n",
               "b": "from .a import StarShape, used\n\nRESULT = used(), StarShape().area()\n"}
    readers = ["from qrdyn.a import bench_only\n\nbench_only()\n"]
    assert public_name_violations(sources, readers, {("a", "later"): "a caller is planned"}) == (
        [("a", 4, "frame_for_polygon"), ("a", 20, "StarShape.polyhedron")], [])


def test_detects_a_method_read_only_as_a_name():
    # OrbitRecord.steps had no reader, and passed while a benchmark
    # function read its parameter named steps
    sources = {"a": "class OrbitRecord:\n    def steps(self):\n        pass\n\n"
                    "    def depth(self):\n        pass\n",
               "b": "from .a import OrbitRecord\n\nDEPTH = OrbitRecord().depth()\n"}
    readers = ["def tower_meets_exp_band(tower, steps):\n    return tower[:steps]\n"]
    assert public_name_violations(sources, readers, {}) == ([("a", 2, "OrbitRecord.steps")], [])


def test_every_public_name_is_reached():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    assert all(UNREACHED_PUBLIC.values())
    assert public_name_violations(sources, readers, UNREACHED_PUBLIC) == ([], [])
    # an entry whose name a caller reads, or that is gone, is stale
    stale = {("global_map.py", "build_maps"): "read by the CLI",
             ("zorich.py", "F_eval"): "deleted", **UNREACHED_PUBLIC}
    assert public_name_violations(sources, readers, stale) == (
        [], [("global_map.py", "build_maps"), ("zorich.py", "F_eval")])


def unreached_oracles(oracles, tests):
    """(line, name) of each top-level function of the ``oracles`` source
    that no source of ``tests`` reads, neither directly nor through the
    oracles that a test reads."""
    functions = {node.name: node for node in ast.parse(oracles).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    todo = list(set().union(*map(referenced_names, tests)) & functions.keys())
    reached = set(todo)
    while todo:
        new = referenced_names(functions[todo.pop()]) & functions.keys() - reached
        reached |= new
        todo += new
    return sorted((node.lineno, name) for name, node in functions.items()
                  if name not in reached)


def test_detects_an_unreached_oracle():
    # facet_vertex_cones_probe outlived the vertex term that it checked,
    # and took unit along with it
    oracles = ("def unit(v):\n    return v\n\n"
               "def facet_vertex_cones_probe(shape):\n    return unit(shape)\n\n"
               "def _ray_tris(shape):\n    return shape\n\n"
               "def psi_ray_oracle(shape):\n    return _ray_tris(shape)\n")
    tests = ["from oracles import psi_ray_oracle\n\ndef test_psi():\n"
             "    assert psi_ray_oracle(1)\n"]
    assert unreached_oracles(oracles, tests) == [(1, "unit"),
                                                 (4, "facet_vertex_cones_probe")]


def test_every_oracle_is_reached():
    tests = [p.read_text() for p in sorted(TESTS.glob("test_*.py"))]
    assert unreached_oracles((TESTS / "oracles.py").read_text(), tests) == []


def unused_parameters(source):
    """(line, function, parameter) of each parameter of a module-level
    function, or of a method of a module-level class (named Class.method,
    its self and cls left out), that the body (nested functions and lambdas
    included) never reads."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            named = [(f"{node.name}.{m.name}", m, {"self", "cls"}) for m in node.body
                     if isinstance(m, functions)]
        elif isinstance(node, functions):
            named = [(node.name, node, set())]
        else:
            continue
        for name, fn, exempt in named:
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [(fn.lineno, name, p) for p in params if p not in read | exempt]
    return out


# parameters that perfbench passes and the code ignores; they go with a
# change of the benchmark's calls
IGNORED_PARAMETERS = {
    ("global_map.py", "audit_seams", "samples"),
    ("global_map.py", "audit_seams", "seed"),
    ("global_map.py", "audit_orientation", "samples_per_chart"),
    ("global_map.py", "audit_orientation", "seed"),
    ("global_map.py", "audit_dilatation", "samples"),
    ("global_map.py", "audit_dilatation", "seed"),
    ("global_map.py", "build_maps", "resolution"),
    ("global_map.py", "build_maps", "chart_resolution"),
    ("global_map.py", "build_maps", "lprime_samples"),
    ("global_map.py", "build_maps", "seed"),
}


def test_detects_an_unused_parameter():
    # sphere_directions once took a seed that it never read
    src = ("def sphere_directions(samples, seed=0, lattice_extent=8):\n"
           "    dirs = [_fibonacci_sphere(samples)]\n"
           "    for i in range(-lattice_extent, lattice_extent + 1):\n"
           "        dirs.append(i)\n"
           "    return dirs\n\n"
           "def outer(a, *rest, b, **kw):\n"
           "    return lambda: (a, kw)\n\n"
           "class C:\n"
           "    def method(self, unused):\n"
           "        return 1\n\n"
           "    @classmethod\n"
           "    def make(cls, k):\n"
           "        return k\n")
    # TrivialSelect.select once took a point that it never read
    assert unused_parameters(src) == [(1, "sphere_directions", "seed"),
                                      (7, "outer", "b"), (7, "outer", "rest"),
                                      (11, "C.method", "unused")]


def test_no_unused_parameters():
    found = {(p.name, fn, arg) for p in sorted(PACKAGE.glob("*.py"))
             for _, fn, arg in unused_parameters(p.read_text())}
    assert found - IGNORED_PARAMETERS == set()
    # the allow-list names only parameters that are still there and unused
    assert IGNORED_PARAMETERS <= found


def _signature(fn):
    """(positional parameter names, keyword-only names, defaulted names)."""
    a = fn.args
    pos = [x.arg for x in a.posonlyargs + a.args]
    kw = [x.arg for x in a.kwonlyargs]
    defaulted = pos[len(pos) - len(a.defaults):]
    defaulted += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return pos, kw, defaulted


def _passed_arguments(tree):
    """(callee, slot, caller, name) of each argument of each call in the
    parsed module.  The callee is the called name or attribute; the slot is
    the argument's position or keyword, or ("*", position) for a ``*`` and
    "**" for a ``**`` argument, which pass every parameter from their place
    on.  Where the argument is a parameter of the module-level function
    whose body makes the call, passed on as it is, caller and name are that
    function and parameter; else both are None."""
    out = []

    def forward(caller, params, arg):
        if isinstance(arg, ast.Name) and arg.id in params:
            return caller, arg.id
        return None, None

    def visit(node, caller, params):
        if isinstance(node, ast.Call):
            func = node.func
            callee = getattr(func, "id", None) or getattr(func, "attr", None)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    out.append((callee, ("*", i), None, None))
                    break
                out.append((callee, i, *forward(caller, params, arg)))
            for kw in node.keywords:
                out.append((callee, kw.arg, *forward(caller, params, kw.value))
                           if kw.arg else (callee, "**", None, None))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                own = set(sum(_signature(child)[:2], []))
                if node is tree:
                    visit(child, child.name, own)
                else:       # a nested function's own parameters shadow the caller's
                    visit(child, caller, params - own)
            else:
                visit(child, caller, params)

    visit(tree, None, set())
    return out


def unset_options(sources, readers, exempt):
    """(module, function, parameter) of each knob that no caller sets: a
    parameter of a module-level function of ``sources`` (module name ->
    source; functions (module, name) in ``exempt`` left out) that has a
    default and that no call in ``sources`` or ``readers`` passes, by
    position or by keyword; and a parameter of a public one that every
    call passes only as a knob of the calling function, unchanged (a knob
    of a private helper counts for the forwarding but is not listed: it
    goes with its caller's).  Calls are matched to functions by name."""
    functions = {}
    for module, src in sources.items():
        for node in ast.parse(src).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (module, node.name) not in exempt):
                functions[node.name] = (module, _signature(node))
    passed = {}                   # (function, parameter) -> [(caller, name)]
    for src in [*sources.values(), *readers]:
        for callee, slot, caller, name in _passed_arguments(ast.parse(src)):
            if callee not in functions:
                continue
            pos, kw, _ = functions[callee][1]
            if slot == "**":
                params = pos + kw
            elif isinstance(slot, tuple):
                params = pos[slot[1]:]
            elif isinstance(slot, int):
                params = pos[slot:slot + 1]
            else:
                params = [slot]
            for p in params:
                passed.setdefault((callee, p), []).append((caller, name))
    knobs = {(fn, p) for fn, (_, (_, _, defaulted)) in functions.items()
             for p in defaulted if (fn, p) not in passed}
    listed = set(knobs)
    while True:
        forwarded = {key for key, calls in passed.items() if key not in knobs and all(
            caller is not None and (caller, name) in knobs for caller, name in calls)}
        if not forwarded:
            break
        knobs |= forwarded
        listed |= {(fn, p) for fn, p in forwarded if not fn.startswith("_")}
    return sorted((functions[fn][0], fn, p) for fn, p in listed)


def console_scripts(pyproject):
    """(module, function) of each console script that the ``[project.scripts]``
    table of pyproject.toml points into the package; the command line sets
    its parameters."""
    table = pyproject.partition("[project.scripts]")[2].partition("\n[")[0]
    return {(f"{module}.py", fn) for module, fn in re.findall(r'"qrdyn\.(\w+):(\w+)"', table)}


def test_detects_an_unset_option():
    # max_modulus_estimate once took a sample count that it handed down to
    # sphere_directions, iterate a stop_on_h0 flag and _vertical_line_invariant
    # a tolerance, and no caller outside the tests set any of them; a
    # lambda's own parameter is not the knob of the same name
    sources = {"a": "def sphere_directions(samples):\n    return _fib(samples)\n\n"
                    "def _fib(n):\n    return n\n\n"
                    "def _unit(dim, samples):\n    return sphere_directions(samples)\n\n"
                    "def max_modulus_estimate(h, r, samples=2000):\n"
                    "    return _unit(h.dim, samples), lambda r: _unit(r, samples)\n\n"
                    "def audit(g, samples=100):\n"
                    "    return (lambda samples: probe(g, samples))(7)\n\n"
                    "def probe(g, samples):\n    return g, samples\n\n"
                    "def iterate(h, x0, k_max, stop_on_h0=False, *, cap=None):\n"
                    "    return _line(x0), stop_on_h0, cap\n\n"
                    "def _line(p, tol=1e-9):\n    return p, tol\n\n"
                    "def build(resolution=None, seed=0, **kw):\n    return kw\n\n"
                    "def later(record, escape=None):\n    return record\n",
               "b": "from .a import iterate, max_modulus_estimate\n\n"
                    "def run(h, args):\n"
                    "    return iterate(h, (0, 0, 1), 5, cap=2), max_modulus_estimate(h, 3.0)\n"}
    readers = ["from a import build\n\nbuild(128)\nbuild(**{'seed': 1})\n"]
    assert unset_options(sources, readers, {("a", "later")}) == [
        ("a", "_line", "tol"), ("a", "audit", "samples"), ("a", "iterate", "stop_on_h0"),
        ("a", "max_modulus_estimate", "samples"), ("a", "sphere_directions", "samples")]
    assert console_scripts('[project.scripts]\nqrdyn = "qrdyn.cli:entrypoint"\n\n[tool.x]\n'
                           'y = "qrdyn.other:main"\n') == {("cli.py", "entrypoint")}


def test_every_option_is_set_by_a_caller():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    scripts = console_scripts((PACKAGE.parents[1] / "pyproject.toml").read_text())
    assert scripts == {("cli.py", "entrypoint")}
    assert unset_options(sources, readers, set(UNREACHED_PUBLIC) | scripts) == []


def unused_loop_targets(source):
    """(line, name) of each name bound by the target of a for loop that the
    loop's body (nested functions and lambdas included) never reads; names
    with a leading underscore mark a target as deliberately unused."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, n.id) for n in ast.walk(node.target)
                if isinstance(n, ast.Name) and n.id not in read
                and not n.id.startswith("_")]
    return sorted(out)


def test_detects_an_unused_loop_target():
    # _build_interior_faces once unpacked a quad loop that it never read
    src = ("def faces(defs):\n"
           "    for key, (quad, tri, diag) in defs.items():\n"
           "        yield key, tri, [lambda: diag for _ in range(2)]\n"
           "    for i, _name in enumerate(defs):\n"
           "        pass\n"
           "for row in rows:\n"
           "    for col in row:\n"
           "        print(row)\n")
    assert unused_loop_targets(src) == [(2, "quad"), (4, "i"), (7, "col")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_loop_targets(path):
    assert unused_loop_targets(path.read_text()) == []


def attribute_uses(source):
    """({name: first line} of the attributes that the source assigns, the
    set of attribute names that it reads): an attribute read as such, an
    augmented assignment's target, or the constant name of a ``getattr``
    or ``hasattr`` call."""
    assigned, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            read.add(node.target.attr)
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Store):
                assigned.setdefault(node.attr, node.lineno)
            else:
                read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return assigned, read


def unread_attributes(sources, readers):
    """(module, line, name) of each attribute that a module of ``sources``
    (module name -> source) assigns and that no source of ``sources`` or
    ``readers`` reads."""
    uses = {module: attribute_uses(src) for module, src in sources.items()}
    reads = set().union(*(read for _, read in uses.values()),
                        *(attribute_uses(src)[1] for src in readers))
    return sorted((module, line, name) for module, (assigned, _) in uses.items()
                  for name, line in assigned.items() if name not in reads)


def test_detects_an_unread_attribute():
    # example_three once set h.patch and h.fixed_point, which nothing read
    sources = {"a": "def make(h, t):\n    h.patch = 1\n    h.fixed_point = 2\n"
                    "    h.count = 0\n    h.count += 1\n    t.polygons = []\n"
                    "    t.sizes, t.owner = 1, 2\n    return t.sizes\n",
               "b": "def use(t):\n    return getattr(t, 'owner')\n"}
    assert unread_attributes(sources, ["def f(h):\n    return h.fixed_point\n"]) == [
        ("a", 2, "patch"), ("a", 6, "polygons")]


def test_no_unread_attributes():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    assert unread_attributes(sources, readers) == []


# CPython's parser keeps a module's tokens in an array that doubles when it
# fills, and at 8192 tokens that step raises the peak memory of compiling
# the module by about half a megabyte (3.12 against 2.64 MB, tracemalloc,
# for geometry.py at 8199 tokens), which a run that compiles the sources
# shows in its peak resident set
TOKEN_LIMIT = 8192


def token_count(source):
    """The module's tokens, comments and non-logical line breaks (blank
    lines, continuation lines) left out."""
    return sum(1 for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type not in (tokenize.COMMENT, tokenize.NL))


def test_token_count_leaves_out_comments_and_blank_lines():
    # NAME OP NUMBER NEWLINE ENDMARKER
    assert token_count("x = 1\n") == 5
    assert token_count("# note\n\nx = 1  # set x\n\n") == 5
    assert token_count("x = (1,\n     2)\n") == 9


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_below_the_token_step(path):
    count = token_count(path.read_text())
    assert count < TOKEN_LIMIT, (
        f"{path.name} has {count} tokens, at or above {TOKEN_LIMIT}; split it")


# numpy functions whose first call pages in native code that nothing else
# in a build or an audit runs: the selection code of median, partition,
# percentile and quantile (about 0.5 MB), the sort code behind sort,
# argsort and unique (0.06 MB for a boolean mask, 0.13 MB for integer keys),
# and einsum (about 0.1 MB), whose sums of products the row dot
# ``cones._dots`` gives in the order that every other step uses
SELECTION_AND_SORT = {"median", "nanmedian", "partition", "argpartition", "percentile",
                      "quantile", "sort", "argsort", "unique", "einsum"}


def selection_and_sort_uses(source):
    """(line, name) of each use of a function of ``SELECTION_AND_SORT``: an
    attribute of ``np`` or ``numpy``, or a name imported from numpy."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in SELECTION_AND_SORT
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            out += [(node.lineno, a.name) for a in node.names if a.name in SELECTION_AND_SORT]
    return sorted(out)


def test_detects_a_selection_or_sort_call():
    # audit_dilatation once took np.median of the cell dilatations, the
    # float seam check of the boundary-map validation ranked a boolean mask
    # with np.argsort, and the facet offsets were einsum's; Python's own
    # sorts are allowed
    src = ("import numpy as np\nfrom numpy import quantile, argsort, einsum\n\n"
           "def audit(ks, near, v, n):\n"
           "    v.sort()\n"
           "    order = np.argsort(~near, kind='stable')\n"
           "    offsets = np.einsum('ij,ij->i', n, v)\n"
           "    return np.median(ks), numpy.unique(ks), sorted(v), order, offsets\n")
    assert selection_and_sort_uses(src) == [(2, "argsort"), (2, "einsum"), (2, "quantile"),
                                            (6, "argsort"), (7, "einsum"), (8, "median"),
                                            (8, "unique")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_selection_or_sort_call(path):
    assert selection_and_sort_uses(path.read_text()) == []


# a dict, list or set that a class body assigns is one object shared by
# every instance and every build: a cache that one build fills and later
# builds read (FacetPiece.sectors once kept each piece's sector entries so)
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def mutable_class_attributes(source):
    """(line, class, name) of each name that a class body assigns a dict,
    list or set display (a literal or a comprehension)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    and isinstance(stmt.value, MUTABLE_DISPLAYS)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                out += [(stmt.lineno, node.name, n.id) for t in targets
                        for n in ast.walk(t) if isinstance(n, ast.Name)]
    return sorted(out)


def test_detects_a_mutable_class_attribute():
    src = ("class FacetPiece:\n"
           "    kind = 'abstract'\n"
           "    sectors = {}\n"
           "    __slots__ = ('cells',)\n"
           "    axes: list = [1, 2]\n"
           "    class Inner:\n"
           "        seen = {k for k in 'ab'}\n"
           "    def build(self):\n"
           "        found = []\n"
           "        return found\n")
    assert mutable_class_attributes(src) == [(3, "FacetPiece", "sectors"),
                                             (5, "FacetPiece", "axes"), (7, "Inner", "seen")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_mutable_class_attribute(path):
    assert mutable_class_attributes(path.read_text()) == []


# a double-backquoted identifier, dotted or not
BACKQUOTED = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")
# backquoted words that name no definition: report keys and vertex names
BACKQUOTED_WORDS = {"lipschitz", "box", "method", "P0", "TL", "X1", "precision_lost"}


def defined_names(sources):
    """Every name that the modules of ``sources`` (module file name ->
    source) define: the modules, their classes, functions and parameters,
    the names and attributes that they assign, and their imports."""
    names = {Path(module).stem for module in sources}
    for src in sources.values():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                names.add(getattr(node, "id", None) or node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
    return names


def undefined_backquoted_names(sources, allowed):
    """(module, line, name) of each double-backquoted identifier in a module
    of ``sources`` with a part that is neither a name the modules define
    (``defined_names``), a builtin nor a word of ``allowed``; names of
    ``np``, ``numpy`` and ``math`` are left out."""
    defined = defined_names(sources) | set(dir(builtins)) | allowed
    out = []
    for module, src in sources.items():
        for line, text in enumerate(src.splitlines(), 1):
            for name in BACKQUOTED.findall(text):
                parts = name.split(".")
                if parts[0] not in ("np", "numpy", "math") and not set(parts) <= defined:
                    out.append((module, line, name))
    return out


def test_detects_an_undefined_backquoted_name():
    # the docstrings named FacetPiece.cells after the piece classes were
    # gone; a parameter, an attribute, an import, a builtin and numpy's
    # names are definitions
    sources = {"pieces.py": "def fan_cells(domain_loop):\n    return domain_loop\n",
               "star_extend.py": ('"""Each piece (``FacetPiece.cells``) is a list,\n'
                                  "``pieces.fan_cells`` of ``domain_loop``; ``np.linalg.solve``,\n"
                                  '``len`` and ``Box.facet_planes``, ``psi``, ``owner``."""\n'
                                  "from .geometry import psi\n\n"
                                  "class Box:\n    def __init__(self):\n"
                                  "        self.facet_planes = 1\n")}
    assert undefined_backquoted_names(sources, set()) == [
        ("star_extend.py", 1, "FacetPiece.cells"), ("star_extend.py", 3, "owner")]
    assert undefined_backquoted_names(sources, {"owner", "FacetPiece", "cells"}) == []


def test_backquoted_names_are_defined():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert undefined_backquoted_names(sources, BACKQUOTED_WORDS) == []
    # each allowed word is still written in backquotes and still names nothing
    assert {name for _, _, name in undefined_backquoted_names(sources, set())} \
        == BACKQUOTED_WORDS
