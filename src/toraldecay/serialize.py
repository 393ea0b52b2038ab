"""Deterministic CSV/JSON emission with config-hash provenance headers.

Every emitted file starts from a plain dict config; the hash covers the
sorted JSON of that dict, so identical configurations rerun to
byte-identical files. Floats are written with repr (shortest round-trip
form), which is stable across processes and thread counts.
"""

import hashlib
import json

from ._version import __version__
from .errors import InputError


def config_hash(config):
    """First 16 hex digits of sha256 over canonical sorted JSON."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(columns, rows, config, seed=None, footer=None):
    """CSV text: '#' config, seed and version lines, header row, data rows, optional footer.

    Fields are joined with commas as they are: each is a number, a
    boolean or a fixed column name, none of which needs CSV quoting.
    """
    lines = ["# config: %s" % config_hash(config)]
    if seed is not None:
        lines.append("# seed: %d" % seed)
    lines.append("# version: %s" % __version__)
    lines.append(",".join(columns))
    lines += [",".join(map(format_value, row)) for row in rows]
    lines += ["# %s" % line for line in footer or ()]
    return "\n".join(lines) + "\n"


def write_csv(path, columns, rows, config, seed=None, footer=None):
    return write_text(path, render_csv(columns, rows, config, seed=seed, footer=footer))


def render_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError("not JSON serializable: %r" % (obj,))


def write_json(path, obj):
    return write_text(path, render_json(obj))


def write_text(path, text):
    """Write text to path as UTF-8; a path that cannot be written is bad input."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("cannot write output file %s: %s" % (path, exc)) from exc
    return path


def read_targets_csv(path):
    """One target value per data row (first column); '#' lines are comments.

    The first row may be a header; any later row whose first field is not
    a number is an error, not a row to skip.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read targets file %s: %s" % (path, exc)) from exc
    rows = [line.strip() for line in lines]
    rows = [line for line in rows if line and not line.startswith("#")]
    values = []
    for i, line in enumerate(rows):
        first = line.split(",")[0].strip()
        try:
            values.append(float(first))
        except ValueError:
            if i:  # only the first row may be a header
                raise InputError("non-numeric target %r in %s" % (first, path)) from None
    if not values:
        raise InputError("no numeric targets found in %s" % path)
    return values
