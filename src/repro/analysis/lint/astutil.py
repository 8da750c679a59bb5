"""Small AST helpers shared by simlint rules."""
from __future__ import annotations

import ast


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` as a string for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_private_attr(name: str) -> bool:
    """Single-underscore (non-dunder) attribute names."""
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__"))


def receiver_is_self(node: ast.AST) -> bool:
    """True for ``self``/``cls`` receivers, including ``super()``."""
    if isinstance(node, ast.Name) and node.id in ("self", "cls"):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "super")


def annotation_mentions(node: ast.AST | None, name: str) -> bool:
    """Whether an annotation expression references ``name`` anywhere.

    Handles both live annotation nodes and (via best effort) string
    annotations as used under ``from __future__ import annotations``.
    """
    if node is None:
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == name:
            return True
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and name in sub.value:
            return True
    return False


def signature_mentions_float(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when any parameter or the return annotation involves float."""
    args = fn.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    if args.vararg is not None:
        every.append(args.vararg)
    if args.kwarg is not None:
        every.append(args.kwarg)
    if any(annotation_mentions(a.annotation, "float") for a in every):
        return True
    return annotation_mentions(fn.returns, "float")


def string_elements(node: ast.AST) -> list[str] | None:
    """Literal string members of a tuple/list/set/frozenset expression."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("frozenset", "set", "tuple", "list") \
            and len(node.args) == 1:
        return string_elements(node.args[0])
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
            else:
                return None
        return out
    return None
