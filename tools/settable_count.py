"""Count the settable values of tunevar: what a caller can set, library and CLI.

Library: every optional parameter (one with a default) of each function,
method and class defined in a src/tunevar module, where a class counts the
parameters of its constructor, so a dataclass counts its defaulted init
fields. Enums and exceptions are left out, as are *args and **kwargs.
CLI: every option of each subcommand of tunevar.cli.build_parser(), -h
excluded. It prints the two counts and their sum:

    PYTHONPATH=src python tools/settable_count.py
"""

from __future__ import annotations

import argparse
import enum
import importlib
import inspect
import pkgutil

import tunevar
from tunevar.cli import build_parser


def _optional(fn) -> int:
    params = inspect.signature(fn).parameters.values()
    return sum(p.default is not p.empty for p in params
               if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD))


def _class_count(cls) -> int:
    if issubclass(cls, (enum.Enum, BaseException)):
        return 0
    # __init__ is counted through the class signature
    return _optional(cls) + sum(_optional(member) for name, member in vars(cls).items()
                                if inspect.isfunction(member) and name != "__init__")


def library_count() -> int:
    """Optional parameters over every src/tunevar function, method and class."""
    count = 0
    for info in pkgutil.iter_modules(tunevar.__path__):
        module = importlib.import_module(f"tunevar.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            if inspect.isclass(obj):
                count += _class_count(obj)
            elif inspect.isfunction(obj):
                count += _optional(obj)
    return count


def cli_count() -> int:
    """Options of every CLI subcommand, -h excluded."""
    count = 0
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                count += sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
                             for a in sub._actions)
    return count


def main() -> None:
    lib, cli = library_count(), cli_count()
    print(f"library {lib}")
    print(f"cli {cli}")
    print(f"total {lib + cli}")


if __name__ == "__main__":
    main()
