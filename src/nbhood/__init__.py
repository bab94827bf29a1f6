"""Exact enumeration, counting, and bound verification for word neighborhoods.

The distance-d neighborhood of a word W is the set of words within
Levenshtein distance d of W. This package enumerates and counts that set
and its condensed (prefix-minimal) and super-condensed (subword-minimal)
variants, evaluates closed-form counts for unary words and two upper
bounds in exact arithmetic, and ships verification sweeps that check
every claim against brute-force oracles.

``import nbhood`` loads none of its submodules: each exported name is
imported from its home module on first access (PEP 562), so a caller
that uses only ``count`` never loads the bound arithmetic or the sweeps.
"""
import importlib

__version__ = "0.1.0"

# home module -> the names this package exports from it
_EXPORTS = {
    "core": (
        "DELETION",
        "GAP",
        "INSERTION",
        "KIND_CONDENSED",
        "KIND_FULL",
        "KIND_SUPER_CONDENSED",
        "MATCH",
        "MISMATCH",
        "NEIGHBORHOOD_KINDS",
        "Alignment",
        "Alphabet",
        "BudgetError",
        "Column",
        "NeighborhoodResult",
        "RangeError",
        "ValidationError",
        "Word",
        "alphabet_of_size",
        "canonical_sorted",
        "make_alphabet",
        "make_word",
    ),
    "counting": (
        "BoundReport",
        "LemmaCheck",
        "LemmaCheckReport",
        "alignment_profile_bound",
        "binom_ext",
        "bound_report",
        "bound_table_rows",
        "check_bound_lemmas",
        "closed_form_bound_exact",
        "unary_condensed_count",
        "unary_super_condensed_count",
    ),
    "distance": (
        "alignment_order_key",
        "enumerate_optimal_alignments",
        "leftmost_optimal_alignment",
        "levenshtein",
        "mm_index_sequence",
        "optimal_alignment",
    ),
    "extremal": ("ExtremalReport", "scan_extremal"),
    "neighborhood": (
        "brute_force_enumerate",
        "count",
        "enumerate_condensed",
        "enumerate_full",
        "enumerate_super_condensed",
        "in_neighborhood",
    ),
    "verify": ("VerificationSummary", "VerifyConfig", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        # a home module by name, as when this package imported them all
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
