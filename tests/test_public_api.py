"""Every public name has a consumer outside the tests.

A name in jarlskog.__all__ must be referenced by the library itself (other
than its re-export in __init__.py) or by a study script.  A reference is a
use of the name in code: a name, an attribute, an import, or a dotted-name
string such as "jarlskog.cli".  The definition of the name, and prose in
docstrings and comments, do not count.  The benchmark is no consumer: it
names the layers it traces, so a name that only it mentions would be kept
alive by its own measurement.
"""

import ast
import os

import jarlskog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONSUMERS = ("src/jarlskog", "scripts")
REEXPORT = os.path.join(ROOT, "src", "jarlskog", "__init__.py")


def consumer_files():
    for top in CONSUMERS:
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                path = os.path.join(folder, name)
                if name.endswith(".py") and path != REEXPORT:
                    yield path


def referenced_names():
    """Every name the consumer files reference in code."""
    found = set()
    for path in consumer_files():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if all(part.isidentifier() for part in node.value.split(".")):
                    found.add(node.value.rsplit(".", 1)[-1])
    return found


def test_every_public_name_has_a_consumer_outside_the_tests():
    assert sorted(set(jarlskog.__all__) - referenced_names()) == []
