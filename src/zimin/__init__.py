"""Zimin words, compressed factors, and ranked pattern matching.

All computation on matched instances happens in compressed form, so
patterns whose instances have astronomical length stay cheap.  Modules:
``words`` for the words themselves and the factor test, ``compressed``
for codes of factors, ``boundary`` (no public name) for the junction
systems, ``matching`` for the embedding engine, ``avoidability`` for the
two deciders, ``oracle`` for brute-force ground truth and the
explicit-word reference construction.

``import zimin`` loads none of them: each public name below imports its
module on first use (PEP 562), so a process pays only for the modules
it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "avoidability": (
        "FreeSetWitness", "RankingResult", "ReductionResult", "Verdict", "check_free_set",
        "is_unavoidable_by_ranking", "is_unavoidable_by_reduction",
    ),
    "compressed": (
        "ZBlock", "check_concatenation", "compose", "compress", "decompress",
        "decompressed_length", "expand_tokens", "extend", "reduce_extended", "validate_code",
    ),
    "errors": ("EnumerationLimitError", "NotAFactorError", "SizeLimitError", "ZiminError"),
    "matching": (
        "MatchResult", "RankedPattern", "RankingViolation", "compressed_embedding",
        "count_instances", "enumerate_instances", "instance_length", "shortest_instance",
        "validate_ranking",
    ),
    "oracle": (
        "OracleBudget", "oracle_count", "oracle_enumerate", "oracle_is_factor",
        "oracle_min_length", "uncompressed_embedding",
    ),
    "words": ("first_violation", "generate_zimin", "is_zimin_factor"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
