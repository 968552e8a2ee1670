"""The skeleton layout boundary: no module reads the vertex-tuple views,
the generate/learn/eval pipeline never builds them, no module reaches
for a dense incidence matrix, the learning methods take curl energies
only from the blocked pass, every curl-energy call names a triangle
subset, the learner builds no incidence block, only ``topology`` names
B2's sign layout, every projection takes its basis from one kernel,
every rank comes from one rule, the complex reader ranks no simplex on
its own, only the two ``topology`` helpers word a numeric range check
and only ``_active_indices`` the indicator rule, the package imports
nothing beyond numpy and the standard library, and the test oracles
stay independent of the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import scinfer
from scinfer.baselines import METHODS
from scinfer.config import resolve_budgets
from scinfer.evaluation import evaluate
from scinfer.learner import HyperParams
from scinfer.synth import InstanceParams, generate_instance, read_dataset, write_dataset
from scinfer.topology import build_skeleton, complex_from_dict, complex_to_dict

_VIEWS = ("edges", "triangles")
_DENSE = ("b1_full", "b2_full", "b2_unsigned")


def _attribute_reads(names):
    reads = []
    for path in sorted(Path(scinfer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in names:
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    return reads


def test_no_module_outside_topology_reads_the_tuple_views():
    """``topology`` does not either: ``complex_from_dict`` names a missing
    edge by its ``edge_nodes`` row."""
    assert _attribute_reads(_VIEWS) == []


def test_no_module_reads_a_dense_incidence_matrix():
    assert _attribute_reads(_DENSE) == []
    assert not any(hasattr(build_skeleton(4), name) for name in _DENSE)


def _name_refs(files, names):
    """Every name, attribute or import alias in the package ``files``
    that is one of ``names``."""
    package = Path(scinfer.__file__).parent
    refs = []
    for name in files:
        for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8"))):
            used = [
                getattr(node, "id", None),
                getattr(node, "attr", None),
                node.name if isinstance(node, ast.alias) else None,
            ]
            refs += [f"{name}:{getattr(node, 'lineno', '?')} {n}" for n in used if n in names]
    return refs


def test_methods_never_call_triangle_curl():
    """Every curl-energy pass of the methods goes through ``topology._curl_energy``."""
    assert _name_refs(("learner.py", "baselines.py"), ("triangle_curl", "_curl")) == []


def _calls(name, callee):
    """``(function, argument count)`` for each call of ``callee`` by name in
    the package file ``name``, ``function`` the dotted path of the
    innermost class and def around it."""
    tree = ast.parse((Path(scinfer.__file__).parent / name).read_text(encoding="utf-8"))
    calls, todo = [], [(tree, "")]
    while todo:
        node, scope = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == callee:
            calls.append((f"{name} {scope}", len(node.args) + len(node.keywords)))
        todo += [(child, scope) for child in ast.iter_child_nodes(node)]
    return calls


def test_methods_take_curl_energies_of_subsets_only():
    """Every ``_curl_energy`` call in the package passes a triangle
    subset, so no full-pass scorer of every candidate can come back.
    GreedySCL's memo and SepSCL are the only callers, and the name is used
    for nothing but these calls and their two imports."""
    files = _package_files()
    calls = [call for name in files for call in _calls(name, "_curl_energy")]
    callers = {"baselines.py run_sep_scl", "learner.py _CurlMemo.fill"}
    assert {scope for scope, _ in calls} == callers
    assert [call for call in calls if call[1] != 3] == []
    assert len(_name_refs(files, ("_curl_energy",))) == len(calls) + 2


def test_learner_builds_no_b2_block():
    """The interpolation scatters its Gram blocks from ``tri_edges``."""
    assert _name_refs(("learner.py",), ("b2_block",)) == []


def _package_files():
    return [path.name for path in sorted(Path(scinfer.__file__).parent.glob("*.py"))]


def test_only_topology_names_the_sign_layout():
    """B2's signs, and the Gram blocks scattered from them, live in ``topology``."""
    files = [name for name in _package_files() if name != "topology.py"]
    assert _name_refs(files, ("_TRI_SIGNS", "_SIGN_PAIRS")) == []


def test_one_range_kernel_and_no_svd():
    """The fill's span test, the curl projection and ``hodge_decompose``
    all project through ``topology._project``, which takes its basis from
    ``topology._range_basis``, and no module calls an SVD."""
    assert _name_refs(_package_files(), ("svd",)) == []
    for name, func in [("synth.py", "fill_triangles"), ("synth.py", "gen_low_curl_edge_signals"),
                       ("topology.py", "hodge_decompose"), ("topology.py", "_project")]:
        callee = "_range_basis" if func == "_project" else "_project"
        refs, _ = _reachable_refs(name, func, (callee,))
        assert [ref for ref in refs if ref.endswith(f" {func} -> {callee}")]


def _functions_naming(names):
    """``file function`` of each function in the package that names one of
    ``names``, and the module-level names assigned in each file."""
    found, assigned = set(), set()
    for path in sorted(Path(scinfer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                getattr(sub, "id", None) in names or getattr(sub, "attr", None) in names
                for sub in ast.walk(node)
            ):
                found.add(f"{path.name} {node.name}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                assigned |= {f"{path.name} {t.id}" for t in node.targets if isinstance(t, ast.Name)}
    return found, assigned


def test_one_rank_rule():
    """Every rank the package decides goes through ``topology._rank_mask``:
    it holds the one rank cutoff, ``_GRAM_CUTOFF``, which no other
    function reads; every function that takes a spectrum masks it there;
    no small float literal but the cutoff and the score quantum sits in
    the package; and no module names a least-squares solve, an SVD, a
    pseudoinverse or a cutoff the rule replaced."""
    readers, assigned = _functions_naming(("_GRAM_CUTOFF",))
    assert readers == {"topology.py _rank_mask"}
    assert {a for a in assigned if a.endswith(("CUTOFF", "TOL"))} == {"topology.py _GRAM_CUTOFF"}
    spectra, _ = _functions_naming(("eigh", "eigvalsh", "eigvals", "eig"))
    masked, _ = _functions_naming(("_rank_mask",))
    assert spectra == {
        "topology.py _range_basis",
        "synth.py _connected",
        "synth.py gen_smooth_node_signals",
        "learner.py interpolate_edge_signals",
    }
    assert spectra <= masked
    small = []
    for path in sorted(Path(scinfer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node.value) for node in tree.body if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] in (["_GRAM_CUTOFF"], ["SCORE_QUANTUM"])
        }
        small += [
            f"{path.name}:{node.lineno} {node.value}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < node.value < 1e-6 and id(node) not in allowed
        ]
    assert small == []
    banned = ("lstsq", "svd", "pinv", "PINV_TOL", "_EIG_CUTOFF", "_SV_CUTOFF")
    assert _name_refs(_package_files(), banned) == []


def test_imports_nothing_beyond_numpy_and_the_standard_library():
    """A fresh interpreter that imports the package, its CLI and its sweep
    loads no top-level module but ``numpy``, ``scinfer`` and the standard
    library's; modules loaded before the import, such as site hooks, do
    not count. ``import scinfer`` alone loads neither the CLI nor argparse."""
    script = (
        "import sys\n"
        "loaded = set(sys.modules)\n"
        "before = {m.split('.')[0] for m in sys.modules}\n"
        "import scinfer\n"
        "print(' '.join(sorted({'scinfer.cli', 'argparse'} & (set(sys.modules) - loaded))))\n"
        "import scinfer.cli, scinfer.sweep\n"
        "after = {m.split('.')[0] for m in sys.modules}\n"
        "print(scinfer.__file__)\n"
        "print(' '.join(sorted(after - before - set(sys.stdlib_module_names))))\n"
    )
    path = [str(Path(scinfer.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    lone, where, added = proc.stdout.splitlines()
    assert lone == ""
    assert where == scinfer.__file__
    assert set(added.split()) == {"numpy", "scinfer"}


def _reachable_refs(name, root, names):
    """Every reference to one of ``names`` in the module-level function
    ``root`` of the package file ``name`` or in the module-level
    functions it reaches by name, with the set of functions reached."""
    tree = ast.parse((Path(scinfer.__file__).parent / name).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo, refs = set(), [root], []
    while todo:
        func = todo.pop()
        if func in reached:
            continue
        reached.add(func)
        for node in ast.walk(defs[func]):
            ref = getattr(node, "id", None) or getattr(node, "attr", None)
            if ref in names:
                refs.append(f"{name}:{node.lineno} {func} -> {ref}")
            if isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
    return refs, reached


def test_complex_reader_ranks_no_entry_alone():
    """``complex_from_dict`` ranks each simplex list in one array pass of
    ``_simplex_ranks``, and that is the one function outside the skeleton's
    enumeration that calls the closed-form ``_edge_rank``/``_triangle_rank``."""
    _, reached = _reachable_refs("topology.py", "complex_from_dict", ())
    assert {"_simplex_ranks", "_edge_rank", "_triangle_rank", "build_skeleton"} <= reached
    callers, _ = _functions_naming(("_edge_rank", "_triangle_rank"))
    assert callers == {
        "topology.py build_skeleton", "topology.py _simplex_ranks", "topology.py _triangle_rank",
    }


def _wordings(words):
    """``(file, function, line)`` of each string literal in the package
    that holds one of ``words``."""
    found, todo = [], []
    for path in sorted(Path(scinfer.__file__).parent.glob("*.py")):
        todo.append((ast.parse(path.read_text(encoding="utf-8")), path.name, ""))
    while todo:
        node, name, func = todo.pop()
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += [(name, func, node.lineno) for w in words if w in node.value]
        todo += [(child, name, func) for child in ast.iter_child_nodes(node)]
    return found


def test_only_the_two_helpers_word_a_range_check():
    """Every numeric range refusal goes through ``topology._require_int``
    or ``topology._require_real``: no other string literal in the package
    words one."""
    helpers = {("topology.py", "_require_int"), ("topology.py", "_require_real")}
    found = _wordings(("must be >=", "must be in [", "must be in ("))
    assert [f for f in found if f[:2] not in helpers] == []


def test_only_active_indices_words_the_indicator_rule():
    """Every indicator passes ``topology._active_indices``: no other
    string literal in the package words the binary refusal, and no
    module names the float-copying ``_as_indicator`` it replaced."""
    found = _wordings(("must be binary",))
    assert {f[:2] for f in found} == {("topology.py", "_active_indices")}
    assert _name_refs(_package_files(), ("_as_indicator",)) == []


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert modules and not [m for m in modules if m.split(".")[0] in ("scinfer", "")]


def test_pipeline_builds_no_tuple_view(tmp_path):
    params = InstanceParams(n_nodes=12, n_node_signals=30, n_edge_signals=30)
    truth, signals = generate_instance(params, seed=3)
    write_dataset(tmp_path, truth, signals)
    back, back_signals = read_dataset(tmp_path)
    hp = resolve_budgets(HyperParams(), back.selection)
    for run in METHODS.values():
        state = run(
            back.skeleton, back_signals.x0, back_signals.x1_obs, back_signals.observed_edges, hp
        )
        evaluate(back.skeleton, state.selection, back.selection)
        skeleton, selection = complex_from_dict(complex_to_dict(back.skeleton, state.selection))
        np.testing.assert_array_equal(selection.w1, state.selection.w1)
        np.testing.assert_array_equal(selection.w2, state.selection.w2)
        assert not set(_VIEWS) & set(vars(skeleton))
    for sk in (truth.skeleton, back.skeleton):
        assert not set(_VIEWS) & set(vars(sk))
