"""The public API: what `import odyn` exports, pinned name by name."""

import ast
import importlib
import inspect
import io
from pathlib import Path

import odyn
from odyn import Hypergraph, InfluenceConfig, SimilaritySpec, SimplifyConfig, WeightedGraph
from odyn._state import config_fields, config_keys

PUBLIC = [
    "ClassifyResult", "CsvFormatError", "DynamicSpec", "EmptyGraph", "EmptyMask",
    "EnergySeries", "Hypergraph", "INFLUENCE_PRESETS", "InfluenceConfig", "InfluencerLabeling",
    "InsufficientData", "IntegratorConfig", "InvalidProbability", "KernelNotNormalized",
    "NoConvergence", "NodeLabels", "NonFiniteState", "NotRowStochastic", "NotSPD",
    "NotStronglyConnected", "NumericFailure", "OdynError", "OutOfRangeSimilarity",
    "OversmoothingReport", "PreconditionFailed", "SimilaritySpec", "SimplifyConfig",
    "SimplifyReport",
    "StepLimitExceeded", "TooLarge", "Trajectory", "WeightedGraph", "ZeroDegree",
    "cluster_count", "consensus_predict", "cooccurrence_fixture", "detect_oversmoothing",
    "dirichlet_energy_graph", "dirichlet_energy_hypergraph", "dopri5_step", "euler_step",
    "fd_step", "generate_sbm", "hk_step", "homophily_level", "influence_preset", "integrate",
    "is_aperiodic", "is_strongly_connected", "iterate_map", "label_by_degree",
    "make_hypergraph_diffusion_rhs", "make_hypergraph_odnet_rhs", "make_odnet_rhs",
    "normalize_rows", "phi", "planted_two_block_fixture", "propagate_labels", "pseudo_features",
    "read_graph_csv", "read_hypergraph_csv", "read_labels_csv", "read_state_csv", "rk4_step",
    "similarity_dynamic", "similarity_static", "simplify_network", "spectral_gap",
    "split_masks", "validate_row_stochastic", "write_energy_csv", "write_graph_csv",
    "write_hypergraph_csv", "write_json", "write_labels_csv", "write_state_csv",
    "write_trajectory_csv",
]


def test_public_api_is_pinned():
    # A name added to or dropped from the API must be added or dropped here too.
    assert sorted(odyn.__all__) == PUBLIC


def _top_level_names(path):
    """Names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_odyn_exports_exactly_its_modules_all():
    # Every module but cli and the private ones declares its public names once,
    # in its __all__; odyn re-exports them in module order.
    src = Path(odyn.__file__).parent
    stems = sorted(p.stem for p in src.glob("*.py")
                   if not p.stem.startswith("_") and p.stem != "cli")
    modules = [importlib.import_module(f"odyn.{stem}") for stem in stems]
    assert odyn.__all__ == [name for module in modules for name in module.__all__]
    for stem, module in zip(stems, modules):
        assert set(module.__all__) <= _top_level_names(src / f"{stem}.py"), stem


def test_a_renamed_fields_key_comes_from_its_metadata():
    for cls, name, key in ((InfluenceConfig, "lam", "lambda"),
                           (SimilaritySpec, "kind", "similarity"),
                           (SimplifyConfig, "weight_cutoff", "cutoff"),
                           (SimplifyConfig, "feature_dim", "dim")):
        keys = config_keys(cls)
        assert key in keys and name not in keys, (cls.__name__, name)
    read = config_fields(InfluenceConfig, {"eps1": 0.1, "eps2": 0.5, "lambda": 0.25, "lam": 9.0})
    assert read == {"eps1": 0.1, "eps2": 0.5, "lam": 0.25}
    # No keyword catch-all: a call site cannot rename a key.
    assert list(inspect.signature(config_keys).parameters) == ["cls"]
    assert list(inspect.signature(config_fields).parameters) == ["cls", "obj"]


def test_structures_publish_no_dense_views():
    # Dense and per-node views live in the tests as oracles (conftest.py), not on the structures.
    for cls, names in ((WeightedGraph, ["dense_weights", "out_slice", "neighbors", "degree"]),
                       (Hypergraph, ["incidence", "membership_weight", "co_membership"])):
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)


def test_star_import_binds_no_submodule():
    # The submodules stay out of __all__, so a caller's own `io` survives.
    namespace = {"io": io}
    exec("from odyn import *", namespace)
    assert namespace["io"] is io
    assert "cli" not in namespace and "dynamics" not in namespace


def _unused_imports(path):
    """(line, name) of each name a module imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): node.lineno for a in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_modules_import_nothing_they_do_not_use():
    # __init__.py imports only to re-export, so it is the one module left out.
    src = Path(odyn.__file__).parent
    unused = {path.name: _unused_imports(path)
              for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_import_scan_finds_what_is_never_read(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\nimport os, sys\n"
                    "from a.b import c, d as e\nx: c = sys.argv\n", encoding="utf-8")
    assert _unused_imports(path) == [(2, "os"), (3, "e")]


def _cast_config_lookups(path):
    """(line, cast) of each float(), str(), bool() or int() of a cfg/obj lookup.

    A lookup is `cfg.get(...)`, `obj.get(...)`, `cfg[...]` or `obj[...]`; config
    values go through the typed readers in odyn._state instead.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("float", "str", "bool", "int")):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute):
                target = arg.func.value if arg.func.attr == "get" else None
            else:
                target = arg.value if isinstance(arg, ast.Subscript) else None
            if isinstance(target, ast.Name) and target.id in ("cfg", "obj"):
                found.append((node.lineno, node.func.id))
    return found


def test_modules_cast_no_config_lookup():
    src = Path(odyn.__file__).parent
    found = {path.name: _cast_config_lookups(path) for path in sorted(src.glob("*.py"))}
    assert {name: casts for name, casts in found.items() if casts} == {}


def test_config_cast_scan_finds_each_cast_of_a_lookup(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("a = float(cfg.get('a', 1.0))\nb = str(obj['b'])\nc = bool(cfg['c'])\n"
                    "d = int(obj.get('d'))\ne = float(x.get('e'))\nf = number(cfg['f'], 'f')\n"
                    "g = float(value)\nh = str(cfg.items())\n", encoding="utf-8")
    assert _cast_config_lookups(path) == [(1, "float"), (2, "str"), (3, "bool"), (4, "int")]


def _literal_key_reads(path):
    """(line, key) of each string-literal key read: `x.get("k", ...)`, `x["k"]` or `"k" in x`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            key = node.args[0] if node.func.attr == "get" and node.args else None
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            key = node.slice
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            key = node.left
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            found.append((node.lineno, key.value))
    return sorted(found)


# Literal keys cli.py reads that are not config keys: the log level's
# environment variable and the two fields of sweep's `sweep` object.
NOT_CONFIG_KEYS = {"ODYN_LOG", "param", "values"}


def test_every_config_key_the_cli_reads_is_in_its_schema():
    import odyn.cli as cli

    reads = _literal_key_reads(Path(cli.__file__))
    declared = set().union(*cli.KEYS.values())
    assert [(line, key) for line, key in reads if key not in declared | NOT_CONFIG_KEYS] == []
    assert {key for _, key in reads} >= NOT_CONFIG_KEYS | {"eps1", "node_count", "state_csv"}


def test_key_read_scan_finds_each_literal_key(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("a = cfg.get('a', 1)\nb = run['b']\nc = 'c' in cfg\nd = 'd' not in x\n"
                    "cfg['e'] = 1\nf = cfg.get(key)\ng = x[0]\nh = x.items('h')\n",
                    encoding="utf-8")
    assert _literal_key_reads(path) == [(1, "a"), (2, "b"), (3, "c"), (4, "d")]
