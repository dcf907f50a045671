"""The package's YAML inputs, a scenario and the message catalog, read one
way: one file reader, one packaged-file lookup and one key check."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import yaml

from agrisim.errors import ConfigurationError


class _Loader(yaml.SafeLoader):
    """The safe loader, refusing a mapping that names a key twice (the parser
    keeps the last value); a key merged in by ``<<`` may be overridden."""

    def construct_mapping(self, node, deep=False):
        own = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        data = super().construct_mapping(node, deep)
        seen = set()
        for key_node in own:  # each key is built already: a cache lookup
            if (key := self.construct_object(key_node)) in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return data


def read(path):
    """The document in the YAML file at ``path``; a file that cannot be
    read or parsed fails as a ``ConfigurationError`` naming it."""
    try:
        with Path(path).open("rb") as fh:
            return yaml.load(fh, _Loader)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc


def packaged(name: str):
    """The path of the packaged data file ``name``, as a context manager."""
    return resources.as_file(resources.files("agrisim") / "data" / name)


def mapping(value, where, allowed=None, required=()) -> dict:
    """``value`` as a mapping (``where`` in errors) with every ``required``
    key and, unless ``allowed`` is None, none outside it; keys sort as text."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"'{where}' must be a mapping")
    for problem, keys in (
            ("unknown", value.keys() - (value if allowed is None else allowed)),
            ("missing", set(required) - value.keys())):
        if keys:
            raise ConfigurationError(
                f"{problem} keys in '{where}': {sorted(keys, key=str)}")
    return value
