"""Every name the package exports, and every name README lists as a reference oracle, exists."""

import importlib
import pathlib
import re

import toraldecay


def _resolve(dotted):
    obj = importlib.import_module("toraldecay." + dotted.split(".")[0])
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def test_all_names_resolve():
    missing = [name for name in toraldecay.__all__ if not hasattr(toraldecay, name)]
    assert missing == []


def test_readme_reference_oracles_resolve():
    # a bare name in a bullet belongs where the bullet's first dotted name lives:
    # `interval.CosineSeries`, `tent_transfer` -> interval.tent_transfer
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Reference oracles", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"\n- ", section)[1:]
    assert len(bullets) >= 5
    names = []
    for bullet in bullets:
        tokens = re.findall(r"`([A-Za-z_][\w.]*)`", bullet)
        parent = tokens[0].rsplit(".", 1)[0]
        names += [t if "." in t else parent + "." + t for t in tokens]
    assert len(names) >= 10
    for name in names:
        _resolve(name)
