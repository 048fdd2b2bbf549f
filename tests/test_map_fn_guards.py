"""No map fn under sharesci_ray/ opens with a zero-row guard.

Ray never calls a ``map_batches`` fn on a 0-row batch nor a ``map_groups``
fn on an empty group (``test_property.py::test_ray_never_maps_zero_rows``
pins that), so a guard such as ``if t.num_rows == 0: return
S.empty_table()`` at the top of one is dead code.  This scan finds the fns
handed to ``map_batches``/``map_groups`` in the same module — by name,
through a factory that returns a nested fn by name (called in place or
assigned first), through ``lambda g: f(g, ...)``, or as a callable class
— and fails when one opens with such a test of its batch
parameter."""

from __future__ import annotations

import ast
import os

_PKG = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "sharesci_ray"
)
_MAPS = ("map_batches", "map_groups")


def _scope_defs(scope: ast.AST) -> dict[str, ast.AST]:
    """Functions and classes defined in ``scope`` itself (not nested)."""
    out: dict[str, ast.AST] = {}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        n = todo.pop()
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            out.setdefault(n.name, n)
        elif not isinstance(n, (ast.Lambda, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(n))
    return out


def _resolve(name: str, chain: list[ast.AST]) -> ast.AST | None:
    """The def ``name`` refers to from inside ``chain`` (innermost last),
    or the value of a ``name = ...`` assignment in that scope."""
    for scope in reversed(chain):
        hit = _scope_defs(scope).get(name)
        if hit is not None:
            return hit
        for st in getattr(scope, "body", []):
            if isinstance(st, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in st.targets
            ):
                hit = st.value
        if hit is not None:
            return hit
    return None


def _targets(arg: ast.AST, chain: list[ast.AST]):
    """(fn def, index of its batch parameter) for one map fn argument."""
    if isinstance(arg, ast.Name):
        d = _resolve(arg.id, chain)
        if isinstance(d, ast.FunctionDef):
            yield d, 0
        elif isinstance(d, ast.ClassDef):
            call = _scope_defs(d).get("__call__")
            if isinstance(call, ast.FunctionDef):
                yield call, 1
        elif isinstance(d, (ast.Call, ast.Lambda)):
            yield from _targets(d, chain)
    elif isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
        factory = _resolve(arg.func.id, chain)
        if isinstance(factory, ast.FunctionDef):
            for r in ast.walk(factory):
                if isinstance(r, ast.Return) and isinstance(r.value, ast.Name):
                    yield from _targets(r.value, [*chain, factory])
    elif isinstance(arg, ast.Lambda) and isinstance(arg.body, ast.Call):
        call, params = arg.body, arg.args.args
        if (
            isinstance(call.func, ast.Name)
            and params
            and call.args
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id == params[0].arg
        ):
            yield from _targets(call.func, chain)


def _is_zero_test(test: ast.AST, param: str) -> bool:
    """``p.num_rows == 0`` / ``not p.num_rows`` / ``p.num_rows < 1`` /
    ``len(p) == 0`` / ``not len(p)``."""

    def rows_of(e: ast.AST) -> bool:
        if isinstance(e, ast.Attribute) and e.attr == "num_rows":
            return isinstance(e.value, ast.Name) and e.value.id == param
        return (
            isinstance(e, ast.Call)
            and isinstance(e.func, ast.Name)
            and e.func.id == "len"
            and len(e.args) == 1
            and isinstance(e.args[0], ast.Name)
            and e.args[0].id == param
        )

    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return rows_of(test.operand)
    if isinstance(test, ast.BoolOp):
        return any(_is_zero_test(v, param) for v in test.values)
    if isinstance(test, ast.Compare) and len(test.ops) == 1 and rows_of(test.left):
        c = test.comparators[0]
        if isinstance(c, ast.Constant):
            op = test.ops[0]
            return (isinstance(op, ast.Eq) and c.value == 0) or (
                isinstance(op, ast.Lt) and c.value == 1
            )
    return False


def _opens_with_guard(fn: ast.FunctionDef, idx: int) -> bool:
    """Does ``fn`` test its batch parameter for zero rows before doing
    anything with it (after its docstring, imports and assignments that
    do not read the batch)?"""
    params = fn.args.args
    if len(params) <= idx:
        return False
    p = params[idx].arg
    for st in fn.body:
        if isinstance(st, ast.If):
            return _is_zero_test(st.test, p)
        reads = any(isinstance(n, ast.Name) and n.id == p for n in ast.walk(st))
        if isinstance(st, (ast.Import, ast.ImportFrom)) or (
            isinstance(st, (ast.Expr, ast.Assign)) and not reads
        ):
            continue
        return False
    return False


def guarded_map_fns(root: str = _PKG) -> list[str]:
    """``file:line name`` of every map fn that opens with a zero-row guard."""
    found = set()
    for dirpath, _dirs, files in os.walk(root):
        for f in sorted(files):
            if not f.endswith(".py"):
                continue
            path = os.path.join(dirpath, f)
            with open(path) as fh:
                tree = ast.parse(fh.read())

            def visit(node: ast.AST, chain: list[ast.AST]) -> None:
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in _MAPS:
                        args = list(node.args[:1]) + [
                            k.value for k in node.keywords if k.arg == "fn"
                        ]
                        for a in args:
                            for fn, idx in _targets(a, chain):
                                if _opens_with_guard(fn, idx):
                                    rel = os.path.relpath(path, root)
                                    found.add(f"{rel}:{fn.lineno} {fn.name}")
                inner = (
                    [*chain, node]
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    else chain
                )
                for c in ast.iter_child_nodes(node):
                    visit(c, inner)

            visit(tree, [tree])
    return sorted(found)


def test_no_map_fn_opens_with_a_zero_row_guard():
    assert guarded_map_fns() == []


def test_scan_finds_each_way_a_map_fn_is_passed(tmp_path):
    """The scan itself: a guard is found behind every way of handing a fn
    to Ray, and a zero-row test that is not the opening one is left be."""
    src = '''
def by_name(t):
    """doc"""
    schema = 1
    if t.num_rows == 0:
        return t
    return t

def _factory(k):
    def inner(batch):
        if not batch.num_rows:
            return batch
        return batch
    return inner

def _factory2():
    def assigned(batch):
        if batch.num_rows == 0:
            return batch
        return batch
    return assigned

def via_lambda(g, k):
    if len(g) == 0:
        return g
    return g

class Scorer:
    def __call__(self, batch):
        if batch.num_rows < 1:
            return batch
        return batch

def late(t):
    t = t.filter(t)
    if t.num_rows == 0:
        return t
    return t

def op(ds):
    ds.map_batches(by_name)
    ds.map_batches(_factory(3))
    fn = _factory2()
    ds.map_batches(fn)
    ds.groupby("k").map_groups(lambda g: via_lambda(g, 2))
    ds.map_batches(Scorer, concurrency=1)
    return ds.map_batches(late)
'''
    (tmp_path / "mod.py").write_text(src)
    got = [s.split(" ")[1] for s in guarded_map_fns(str(tmp_path))]
    assert sorted(got) == ["__call__", "assigned", "by_name", "inner", "via_lambda"]
