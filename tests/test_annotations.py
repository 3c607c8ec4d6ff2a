"""Every annotation in the package resolves.

Each module reads its annotations as strings (from __future__ import
annotations), so a name that no module-level import or definition supplies
fails nowhere at import. typing.get_type_hints evaluates them, here, for every
function, class, method, property and cached_property a package module
defines.
"""

import importlib
import inspect
import pkgutil
import typing
from functools import cached_property

import pytest

import modscreen

MODULES = ["modscreen", *sorted(f"modscreen.{info.name}" for info
                               in pkgutil.iter_modules(modscreen.__path__))]


def _function(obj):
    """obj as a plain function, through a @cache wrapper; else None."""
    obj = inspect.unwrap(obj)
    return obj if inspect.isfunction(obj) else None


def defined_objects(module):
    """(qualified name, object) for each function, class, method and
    property getter, setter or deleter whose code module defines; a cached
    function or method counts as the function it wraps."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if not inspect.isclass(obj):
            if _function(obj):
                yield obj.__qualname__, obj
        else:
            yield obj.__qualname__, obj
            for name, attr in vars(obj).items():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                if isinstance(attr, property):
                    funcs = [attr.fget, attr.fset, attr.fdel]
                elif isinstance(attr, cached_property):
                    funcs = [attr.func]
                else:
                    funcs = [attr]
                for func in map(_function, funcs):
                    if func and func.__module__ == module.__name__:
                        yield f"{obj.__qualname__}.{name}", func


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    for qualname, obj in defined_objects(importlib.import_module(name)):
        try:
            typing.get_type_hints(obj)
        except Exception as exc:
            pytest.fail(f"{name}.{qualname}: {type(exc).__name__}: {exc}")
