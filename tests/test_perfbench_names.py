"""The names that the benchmark in `perfbench/` reaches in panrec exist: the
functions its tracer wraps by name, every argument its counters read by name,
and every `module.attr` that its workloads read from a panrec module. This
reads `perfbench/` and runs none of it but the tracer's construction, which
patches nothing until it is installed."""
import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_tracer_finds_every_traced_function(monkeypatch):
    importlib.import_module("panrec.cli")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.Tracer().missing == []


def attribute_chain(node):
    """['a', 'b', 'c'] for the expression a.b.c on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def test_every_panrec_attribute_the_workloads_read_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    bound = {}  # name in workloads.py -> the panrec object it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "panrec":
                    # `import panrec.cli` binds panrec, `import panrec.cli as c` panrec.cli
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or "panrec"] = module if alias.asname else \
                        importlib.import_module("panrec")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "panrec":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"from {node.module} import {alias.name}"
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    assert {"panrec", "pipeline", "synth"} <= set(bound)
    read = set()
    for node in ast.walk(tree):
        chain = attribute_chain(node)
        if chain and chain[0] in bound and isinstance(node.ctx, ast.Load):
            read.add(".".join(chain))
            obj = bound[chain[0]]
            for depth, attr in enumerate(chain[1:], 2):
                assert hasattr(obj, attr), f"workloads.py reads {'.'.join(chain[:depth])}"
                obj = getattr(obj, attr)
    assert "pipeline.reconstruct_from_priors" in read and "panrec.cli.main.main" in read


def test_every_argument_a_counter_reads_is_a_parameter(monkeypatch):
    # A counter reads the bound arguments of the call it counts by name, as
    # a["heatmap"]; a renamed parameter fails only a traced run otherwise.
    importlib.import_module("panrec.cli")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    read = set()
    for layer in tracing.LAYERS:
        if layer.count is None:
            continue
        counter = ast.parse(inspect.getsource(layer.count)).body[0]
        arguments = counter.args.args[1].arg
        keys = {node.slice.value for node in ast.walk(counter)
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == arguments and isinstance(node.slice, ast.Constant)}
        parameters = inspect.signature(getattr(importlib.import_module(layer.module),
                                               layer.attr)).parameters
        assert keys <= set(parameters), f"{layer.name} counter reads {sorted(keys)}"
        read |= keys
    assert read >= {"centers", "categories", "heatmap", "threshold", "obj_path", "path"}
