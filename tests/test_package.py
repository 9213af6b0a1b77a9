"""The public surface of the strongdim package."""

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

import strongdim
from strongdim import cli, graphs, jahangir, strong_metric, vertex_cover


def test_every_exported_name_resolves():
    assert len(set(strongdim.__all__)) == len(strongdim.__all__)
    for name in strongdim.__all__:
        assert hasattr(strongdim, name), name


@pytest.mark.parametrize(
    "module,name",
    [(strongdim, "JahangirLabeling"), (jahangir, "JahangirLabeling"),
     (strongdim, "MmdPairSet"), (strong_metric, "MmdPairSet"),
     (strongdim, "max_independent_set"), (vertex_cover, "max_independent_set"),
     (strongdim, "mmd_pairs"), (strong_metric, "mmd_pairs"), (strong_metric, "mmd_masks"),
     (strongdim, "DistanceMatrix"), (graphs, "DistanceMatrix"),
     (strongdim, "srg_edge_families_even"), (jahangir, "srg_edge_families_even"),
     (strongdim, "srg_edge_families_odd"), (jahangir, "srg_edge_families_odd"),
     (jahangir, "EVEN_CASES"), (jahangir, "ODD_CASES"),
     (strongdim, "predicted_cover_even"), (jahangir, "predicted_cover_even"),
     (strongdim, "predicted_cover_odd"), (jahangir, "predicted_cover_odd"),
     (cli, "_verify_cell"), (cli, "_cmd_mmd"),
     (strongdim, "cover_pipeline"), (strong_metric, "cover_pipeline"),
     (graphs, "pack_rows"), (graphs, "unpack_rows"), (graphs, "transpose"),
     (strongdim.JahangirParams, "cycle_ids"), (strongdim.JahangirParams, "inner_cycle_ids")],
)
def test_folded_types_are_gone(module, name):
    assert not hasattr(module, name)
    assert name not in strongdim.__all__


def test_duplicate_members_are_gone():
    assert not hasattr(strongdim.Graph, "name_of")
    # both views are derived properties; no private field can hold an unchecked
    # one, and vertex names belong to the document, not the graph
    assert [f.name for f in dataclasses.fields(strongdim.Graph)] == ["vertex_count"]
    assert list(inspect.signature(strongdim.diameter).parameters) == ["g"]
    report_fields = {f.name for f in dataclasses.fields(strongdim.VerificationReport)}
    assert "alpha_computed" in report_fields and "pipeline_sdim" not in report_fields
    assert "exploratory" not in report_fields  # a property of formula_sdim
    assert "cover" not in jahangir._Regime._fields


def test_dead_knobs_are_gone():
    assert list(inspect.signature(strongdim.exact_min_vertex_cover).parameters) == ["g"]
    assert list(inspect.signature(strongdim.parse).parameters) == ["text"]
    assert list(inspect.signature(strongdim.serialize).parameters) == ["g", "fmt", "labels"]
    assert list(inspect.signature(strongdim.build_graph).parameters) == ["vertex_count", "edge_list"]
    assert list(inspect.signature(graphs.graph_from_masks).parameters) == ["vertex_count", "masks"]
    assert list(inspect.signature(strongdim.measured_distance_pairs).parameters) == ["params", "case"]
    assert not hasattr(strongdim, "EXACT_COVER_CAP")


def test_sdim_has_one_pipeline_method():
    # "pipeline" was auto without its closed-form cross-check
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    method = next(a for a in sub.choices["sdim"]._actions if a.dest == "method")
    assert method.choices == ("auto", "formula", "brute")


# Unread parameters kept on purpose: the benchmark harness in perfbench/
# passes a distance matrix to these two positionally.
UNREAD_PARAMETERS = {"is_strong_resolving_set.dm", "strong_resolving_graph.dm"}


def _unread_parameters(tree: ast.AST, prefix: str = "") -> list[str]:
    """``qualname.param`` for every parameter of every def in ``tree`` never loaded in its body."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            found += _unread_parameters(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                sub.id
                for stmt in node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            found += [f"{prefix}{node.name}.{p}" for p in params if p not in read]
            found += _unread_parameters(node, f"{prefix}{node.name}.")
    return found


def test_every_parameter_is_read():
    package = Path(strongdim.__file__).parent
    unread = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        unread += [f"{source.stem}.{name}" for name in _unread_parameters(tree)]
    assert sorted(unread) == sorted(f"strong_metric.{name}" for name in UNREAD_PARAMETERS)


def _package_trees() -> dict[str, ast.Module]:
    package = Path(strongdim.__file__).parent
    return {source.stem: ast.parse(source.read_text(encoding="utf-8")) for source in package.glob("*.py")}


def _loaded_names(trees) -> set[str]:
    """Every name the ``trees`` load, by name or as an attribute."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


# Public methods that no module of the package loads: each stays for a
# reader outside it.  Any other method must have a caller in the package.
METHODS_WITHOUT_A_CALLER = {
    "graphs.Graph.degree": "a vertex's degree off the masks view, for library readers",
    "graphs.Graph.has_edge": "the edge test off the masks view, for library readers",
    "graphs.Graph.edge_count": "perfbench's tracer counts SRG edges with it",
    "jahangir.JahangirParams.pair": "the id pair of two rim positions; the published-family goldens are written with it",
}


def _definitions(tree: ast.Module):
    """``(qualname, name)`` of each module-level def and class, and of each class's methods but dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub.name


def test_every_definition_is_used():
    # a def, class or method that nothing in the package loads, by name or as
    # an attribute, is dead unless the package root exports it or it has a
    # reason above
    trees = _package_trees()
    used = set(strongdim.__all__) | _loaded_names(trees.values())
    unused = {
        f"{stem}.{qualname}"
        for stem, tree in trees.items()
        for qualname, name in _definitions(tree)
        if name not in used
    }
    assert unused == set(METHODS_WITHOUT_A_CALLER)


# Exported names that no module of the package loads: each stays for a
# reader outside it.  Any other export must have a caller in the package.
EXPORTS_WITHOUT_A_CALLER = {
    "diameter": "the red acceptance check of the closed-form diameter uses it",
    "extremal_distance_pairs": "the paper's lemma pair sets, judged in the acceptance checks",
    "srg_edge_families": "the paper's published edge families as pair sets; verify reads them as rows",
    "measured_distance_pairs": "perfbench's only jahangir.measure wrap point",
    "is_strong_resolving_set": "perfbench's random-sdim and small-brute checks call it",
    "strongly_resolves": "the scalar definition of strong resolution the scans are judged by",
    "is_maximally_distant": "the scalar definition of an MMD pair the scans are judged by",
    "parse": "the CLI reads documents through graphs._parse, so it can size them before the build",
}


def test_every_export_has_a_caller_or_a_reason():
    trees = _package_trees()
    used = _loaded_names(tree for stem, tree in trees.items() if stem != "__init__")
    uncalled = {name for name in strongdim.__all__ if name not in used}
    assert uncalled == set(EXPORTS_WITHOUT_A_CALLER)


@pytest.mark.parametrize(
    "literal,owner",
    [("brute force cap is", "strong_metric.check_brute_cap"), ("exact cover cap is", "vertex_cover.check_cover_cap"),
     ("memory guard cap is", "cli._check_memory_guard")],
)
def test_each_cap_refusal_is_stated_once(literal, owner):
    # the CLI refuses an oversize jahangir:n,m input through the same function
    # the search calls, so the two messages cannot drift apart
    found = [
        f"{stem}.{node.name}"
        for stem, tree in sorted(_package_trees().items())
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and literal in sub.value
    ]
    assert found == [owner]


def test_the_cli_builds_jahangir_graphs_in_two_places():
    # _load_graph, after the command's cap check, is the one build site of a
    # graph source; gen builds its own
    callers = {
        node.name
        for node in ast.walk(_package_trees()["cli"])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "build_jahangir"
    }
    assert callers == {"_load_graph", "_cmd_gen"}


def test_no_handler_only_reraises():
    # ``except X: raise`` changes nothing unless a later clause would catch X;
    # there it is a second statement of which errors pass, so it is refused
    package = Path(strongdim.__file__).parent
    found = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler)
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Raise)
        and node.body[0].exc is None
    ]
    assert found == []


def test_no_function_recurses_or_rebinds_enclosing_names():
    # the searches are loops over explicit stacks: Python's recursion limit
    # bounds none of them, and no closure shares state through ``nonlocal``
    package = Path(strongdim.__file__).parent
    found = sorted({
        f"{source.stem}.{node.name}"
        for source in package.glob("*.py")
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, ast.Nonlocal)
        or isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == node.name
    })
    assert found == []


def test_runtime_is_stdlib_only():
    # relative imports (level > 0) stay inside the package; every absolute
    # one must name a standard-library module
    package = Path(strongdim.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (source.name, name)
