"""Chance-corrected evaluation of contingency tables.

Builds K x K prediction-vs-truth count tables and derives debiased accuracy
measures, significance tests, evenness-scaled confidence intervals, and a
Monte Carlo harness that checks the intervals empirically.

Submodules load on first use (PEP 562): `import chancekit` imports none of
them, and `chancekit.<name>` imports the modules in dependency order until
one exports the name.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each module imports only modules before it; __all__ lists their exports in
# this order.
_MODULES = ("errors", "contingency", "dichotomous", "multiclass", "significance", "confidence", "montecarlo")
_SUBMODULES = (*_MODULES, "cli")
_bound: set[str] = set()


def _bind(module_name: str) -> list[str]:
    """Import a module and bind its exports here, so later lookups of them
    are plain dict hits; return the names it exports."""
    module = _import_module(f"{__name__}.{module_name}")
    if module_name not in _bound:
        globals().update({name: getattr(module, name) for name in module.__all__})
        _bound.add(module_name)
    return module.__all__


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        names = ["__version__"]
        for module_name in _MODULES:
            names.extend(_bind(module_name))
        globals()["__all__"] = names
        return names
    for module_name in _MODULES:
        if name in _bind(module_name):
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    exports = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *exports, *_SUBMODULES})
