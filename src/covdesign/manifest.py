"""Run manifests: resolved configuration, input digests, seeds, timings.

A manifest is written next to every command's outputs and contains the
fully resolved configuration, which is sufficient to re-run the command
bit-identically (timings and digests are informational only).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

VERSION = "0.13.0"

__all__ = ["VERSION", "file_digest", "input_digests", "build_manifest", "json_text", "write_json",
           "load_manifest", "read_json", "numerics"]

# the environment variables that set the BLAS thread count
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def input_digests(paths) -> dict[str, str]:
    """The sha256 of each file, by path: taken once per run, for the law
    check and for the manifest."""
    return {str(p): file_digest(p) for p in paths}


def numerics() -> dict:
    """The numpy and BLAS build and the BLAS thread settings (null when
    unset): an optimized root re-runs byte for byte only when they match."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its build configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }


def build_manifest(command: str, resolved_config: dict, digests: dict, outputs,
                   seeds: dict, timings: dict, **results) -> dict:
    """The manifest of one run; `digests` are its `input_digests`, and
    `results` extra top-level facts about it."""
    return {
        **results,
        "tool_version": VERSION,
        "command": command,
        "resolved_config": resolved_config,
        "input_digests": digests,
        "outputs": [str(p) for p in outputs],
        "seeds": seeds,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }


def json_text(value) -> str:
    """Strict JSON text (no NaN or infinity): indented, keys sorted, newline-ended."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(value, path) -> None:
    Path(path).write_text(json_text(value), encoding="utf-8")


def read_json(path):
    """Parse a JSON file; bytes that are not UTF-8 or invalid JSON raise a
    ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None


def load_manifest(path) -> dict:
    manifest = read_json(path)
    if not (isinstance(manifest, dict) and {"resolved_config", "command"} <= manifest.keys()):
        raise ValueError(f"{path}: not a run manifest")
    return manifest
