"""Static rules over the package source: floats stay in the newform client, the environment in the CLI."""

import ast
import collections
import os

import cyclecert

SRC = os.path.dirname(cyclecert.__file__)

# the client's timeout (seconds, for urllib) and its rate limiter (on a float
# clock) are the only floats; the arithmetic core is exact
FLOATS_ALLOWED = collections.Counter(
    [
        ("newforms.py", "NewformClient.__init__", "2.0"),
        ("newforms.py", "NewformClient.__init__", 'float("-inf")'),
        ("newforms.py", "NewformClient._http_fetch_json", "self.timeout_ms / 1000.0"),
        ("newforms.py", "NewformClient._http_fetch_json", "1000.0"),
        ("newforms.py", "NewformClient._throttle", "1.0 / self.rate_limit_per_sec"),
        ("newforms.py", "NewformClient._throttle", "1.0"),
    ]
)


def _rule(node):
    """The rule a node would break, if any: "float" or "environ"."""
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return "float"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return "float"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "float"
    if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv"):
        return "environ"
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        if any(alias.name in ("environ", "environb", "getenv") for alias in node.names):
            return "environ"
    return None


def _uses(module, source):
    """(rule, module, enclosing class and function names, source text) of each float or environment use."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            rule = _rule(child)
            if rule:
                found.append((rule, module, ".".join(scope), ast.get_source_segment(source, child)))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(source), ())
    return found


def test_floats_stay_in_the_client_and_the_environment_in_the_cli():
    planted = {
        "x = 1.5": "float",
        "def f(y):\n    return float(y)": "float",
        "x = a / b": "float",
        "x /= 2": "float",
        "import os\nx = os.environ['A']": "environ",
        "from os import environ": "environ",
        "import os\nx = os.getenv('A')": "environ",
    }
    for source, rule in planted.items():
        assert [use[0] for use in _uses("arith.py", source)] == [rule], source
    floats, environ_modules = collections.Counter(), set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                for rule, *where in _uses(name, fh.read()):
                    if rule == "float":
                        floats[tuple(where)] += 1
                    else:
                        environ_modules.add(name)
    assert floats == FLOATS_ALLOWED
    assert environ_modules <= {"cli.py"}
