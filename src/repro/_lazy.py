"""Lazy re-exports (PEP 562): a package names its public API without
importing the modules that define it, so a process loads what it runs."""

from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, modules: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``.  ``modules`` maps each submodule to the public names
    it defines; a name is imported from its submodule on first use and
    kept as a package global, so the hook runs once per name."""
    package = namespace["__name__"]
    home = {name: sub for sub, names in modules.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{home[name]}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__
