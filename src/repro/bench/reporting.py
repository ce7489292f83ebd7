"""Plain-text tables and series for the regenerated figures, plus the
machine-readable bench-result writer (``BENCH_*.json`` at repo root)."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, Mapping, Sequence, Union

# The table renderer and its NaN-safe cell formatter live on the
# observability spine now; re-exported here because every bench and
# figure module (and years of call sites) import them from this module.
from ..obs.core import fmt_cell as _fmt  # noqa: F401
from ..obs.core import format_table  # noqa: F401


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Tiny ASCII plot of one series (for the load-factor curves)."""
    if not values:
        return ""
    blocks = " .:-=+*#%@"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    cells = [blocks[min(int((v - lo) / span * (len(blocks) - 1)), len(blocks) - 1)]
             for v in values]
    return "".join(cells)


def _json_safe(value):
    """Replace NaN/Inf floats with None, recursively.

    ``json.dumps`` would happily emit bare ``NaN``/``Infinity`` tokens,
    which are not JSON and break strict parsers downstream; undefined
    metrics (e.g. latency percentiles of a run with no completions) must
    surface as ``null``.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, Mapping):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def write_json(path: Union[str, Path], payload: Mapping) -> Path:
    """Write one bench's results as deterministic, diff-friendly JSON.

    The perf trajectory of this repo accumulates in ``BENCH_*.json``
    files at the repo root (one per bench, overwritten per run, CI
    uploads them as artifacts), so keys are sorted and floats should be
    pre-rounded by the caller to keep diffs meaningful.  Non-finite
    floats are written as ``null`` (see :func:`_json_safe`).

    Every payload is stamped with a ``meta`` envelope (schema version +
    package version) unless the caller supplied its own; the common
    shape across benches is enforced by ``tools/check_bench_schema.py``.
    """
    from .. import __version__

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(payload)
    payload.setdefault("meta", {"schema": 1, "version": __version__})
    path.write_text(
        json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"
    )
    return path


def wall_clock_meta() -> Dict[str, object]:
    """The ``meta`` envelope of a wall-clock bench file: the schema and
    package version plus the commit, CPU count and Python/NumPy versions
    its times were measured under.  Sim-cycle files keep the plain
    envelope: their bytes must not change from one commit to the next."""
    import numpy

    from .. import __version__

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "schema": 1,
        "version": __version__,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def spread(values: Sequence[float], digits: int = 2) -> Dict[str, float]:
    """Median and interquartile range of repeated measurements."""
    if len(values) == 1:
        return {"median": round(values[0], digits), "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, digits), "iqr": round(q3 - q1, digits)}


def banner(title: str) -> str:
    """Section header used between regenerated figures."""
    bar = "=" * max(len(title), 8)
    return f"\n{bar}\n{title}\n{bar}"


def print_section(title: str, body: str) -> None:
    """Print one experiment section."""
    print(banner(title))
    print(body)
