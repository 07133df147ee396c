"""camsig has no settable value that nothing reads.

An option the CLI defines but never reads, or a parameter a function
accepts but never uses, still parses and still passes every behavioural
test, so these tests read the source with `ast` instead: every option
that `build_parser` defines is read as `args.<dest>` in `cli.py`, and
every parameter of every function in the package is used in its body.
"""

import ast
from pathlib import Path

import camsig

PACKAGE = Path(camsig.__file__).parent


def parse(module):
    return ast.parse(module.read_text(), filename=str(module))


def option_dest(call):
    """The dest argparse gives an add_argument call: `dest=`, else its first long flag."""
    for keyword in call.keywords:
        if keyword.arg == "dest":
            return keyword.value.value
    flags = [arg.value for arg in call.args]
    name = next((flag for flag in flags if flag.startswith("--")), flags[0])
    return name.lstrip("-").replace("-", "_")


def test_every_cli_option_is_read():
    tree = parse(PACKAGE / "cli.py")
    defined = {
        option_dest(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"
    }
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    assert {"seed", "threads", "normalized", "allow_degenerate"} <= defined
    assert sorted(defined - read) == []


def unused_parameters(tree):
    """(function, parameter) for each parameter its body never loads; a method's self or cls is exempt."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if arg]
        if id(node) in methods:
            params = params[1:]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {
            name.id
            for stmt in body
            for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        yield from ((getattr(node, "name", "<lambda>"), p) for p in params if p not in loaded)


def test_every_parameter_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    unused = [f"{module.name}: {fn}({p})" for module in modules for fn, p in unused_parameters(parse(module))]
    assert unused == []


def test_the_scan_finds_an_unused_parameter_and_an_unread_option():
    tree = ast.parse(
        "class C:\n"
        "    def m(self, used, spare):\n"
        "        return used\n"
        "def f(a, *, b=1):\n"
        "    return lambda c: a\n"
    )
    assert sorted(unused_parameters(tree)) == [("<lambda>", "c"), ("f", "b"), ("m", "spare")]
    call = ast.parse('sub.add_argument("--max-iters", type=int)').body[0].value
    assert option_dest(call) == "max_iters"
