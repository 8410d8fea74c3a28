"""The package's public surface and its layering.

Both are pinned as literals, so a change to either is a visible edit of
this file: the names ``import mpdagkit`` exports and the modules of the
package, and the rule that the reference oracles live in one module that
no production module imports.
"""

import ast
import types
from pathlib import Path

import mpdagkit

SRC = Path(mpdagkit.__file__).parent

PUBLIC_NAMES = [
    "AdjustmentVerdict",
    "B_NON_CAUSAL",
    "B_POSSIBLY_CAUSAL",
    "BackgroundKnowledge",
    "ConditionCheck",
    "DagList",
    "EffectMultiset",
    "ForbiddenSet",
    "GraphParseError",
    "OrientationConflictError",
    "OrientationOutcome",
    "ParentSetFamily",
    "PathClassification",
    "PdagGraph",
    "QueryError",
    "ReachSet",
    "SemModel",
    "SimConfig",
    "SimRow",
    "ValidationReport",
    "add_background_fraction",
    "adjust_set",
    "b_blocking_by_enumeration",
    "b_possible_ancestors",
    "b_possible_descendants",
    "check_b_blocking",
    "choose_xy",
    "classify_definite_status",
    "classify_path",
    "close_orientations",
    "consistent_extension",
    "construct_max_pdag",
    "cpdag_of",
    "d_separated",
    "enumerate_dags",
    "forbidden_set",
    "has_directed_cycle",
    "ida_effects",
    "is_amenable",
    "joint_ida_effects",
    "list_adjustment_sets",
    "oracle_reach",
    "parse_background",
    "parse_graph",
    "possible_parent_sets",
    "random_dag",
    "represents",
    "run_simulation",
    "sample_data",
    "satisfies_b_adjustment",
    "serialize_graph",
    "true_total_effect",
    "validate_maximal_pdag",
]

MODULES = [
    "adjustment",
    "causal_paths",
    "cli",
    "extension",
    "ida",
    "meek",
    "pdag_core",
    "reference",
    "sem_sim",
]


def test_public_names_and_modules():
    names = sorted(
        name
        for name, value in vars(mpdagkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert sorted(p.stem for p in SRC.glob("*.py") if not p.stem.startswith("_")) == MODULES


def imported_modules(tree: ast.Module) -> set:
    """Every module an import statement of ``tree`` names, as an absolute
    dotted name: ``from . import x`` names ``mpdagkit`` and ``mpdagkit.x``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "mpdagkit" + (f".{base}" if base else "")
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_no_production_module_imports_or_redefines_the_reference_oracles():
    reference = ast.parse((SRC / "reference.py").read_text())
    oracles = {
        node.name for node in reference.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {
        "oracle_reach", "b_blocking_by_enumeration", "classify_path", "classify_definite_status"
    } <= oracles
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("reference.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text())
        imported = {tuple(m.split(".")[:2]) for m in imported_modules(tree)}
        assert ("mpdagkit", "reference") not in imported, path.name
        defined = {
            node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not defined & oracles, path.name
