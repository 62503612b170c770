"""Delimited-matrix and JSON I/O used by the command line tools.

Matrices are plain text, comma or tab delimited (auto-detected on read),
with an optional header row; reals are serialized with 17 significant
digits so a write/read round trip is exact.  Structured outputs (manifests,
Wald tables, evaluation reports) are JSON.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .exceptions import InputError
from .model import GbmParams

FLOAT_FMT = "%.17g"


def read_bytes(path, digests=None) -> bytes:
    """The contents of the file at `path`.  When `digests` is a dict, the
    SHA-256 of exactly these bytes is stored in it under `path`, so a file
    that is parsed and digested is read once."""
    with open(path, "rb") as fh:
        data = fh.read()
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    return data


def read_matrix(path, allow_empty=False, digests=None) -> np.ndarray:
    """Read a delimited numeric matrix, detecting delimiter and header
    (`digests` as in read_bytes)."""
    text = read_bytes(path, digests).decode()
    # (file line number, stripped text) of the non-blank lines
    lines = [(n, ln) for n, ln in enumerate((raw.strip() for raw in text.splitlines()), 1) if ln]
    if not lines:
        if allow_empty:
            return np.zeros((0, 0))
        raise InputError(f"{path}: empty matrix file")
    delim = "\t" if "\t" in lines[0][1] else ","
    start = 0
    try:   # float() takes more than loadtxt, so a first line such as 1_000 is refused data
        [float(tok) for tok in lines[0][1].split(delim)]
    except ValueError:
        start = 1
    body = lines[start:]
    if not body:
        return np.zeros(0)
    try:
        return np.loadtxt([ln for _, ln in body], delimiter=delim, ndmin=2, comments=None)
    except ValueError as err:
        refused = err
    # name the first line and column that loadtxt refuses
    width = len(body[0][1].split(delim))
    for lineno, ln in body:
        toks = ln.split(delim)
        if len(toks) != width:
            raise InputError(f"{path}: line {lineno} has {len(toks)} fields, expected {width}")
        if _refuses(ln, delim):
            col = next((c for c in range(width) if _refuses(ln, delim, c)), None)
            if col is not None:
                raise InputError(f"{path}: line {lineno}, column {col + 1}: "
                                 f"{toks[col]!r} is not a number") from refused
    raise InputError(f"{path}: {refused}") from refused


def _refuses(line, delim, usecols=None):
    """Whether np.loadtxt refuses `line`, or its columns `usecols` when given."""
    try:
        np.loadtxt([line], delimiter=delim, comments=None, usecols=usecols)
        return False
    except ValueError:
        return True


def write_matrix(path, mat, header=None):
    """Write a matrix as comma-delimited text at round-trip-exact precision;
    a matrix without columns is written as an empty file."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    row_format = ",".join([FLOAT_FMT] * mat.shape[1]) + "\n"
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        if mat.shape[1]:
            fh.writelines(row_format % tuple(row) for row in mat.tolist())


def file_digest(path) -> str:
    """The SHA-256 of the file at `path`, as read_bytes records it."""
    return hashlib.sha256(read_bytes(path)).hexdigest()


def write_json(path, payload, indent=2):
    """Write payload as JSON with sorted keys; indent=None writes it compact,
    through the C encoder that json.dump never uses."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=indent, sort_keys=True, default=_jsonify))
        fh.write("\n")


def read_json(path):
    """Parse the JSON file at `path`."""
    return json.loads(read_bytes(path))


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


PARAM_FILES = (*GbmParams.shapes(), "omega")


def write_params(outdir, params):
    """One delimited file per block plus a combined JSON ledger."""
    os.makedirs(outdir, exist_ok=True)
    combined = {}
    for name, block in params.blocks().items():
        write_matrix(os.path.join(outdir, f"{name}.csv"), block)
        combined[name] = np.atleast_2d(block)
    write_json(os.path.join(outdir, "params.json"), combined, indent=None)


def read_params(indir, digests=None):
    """Reconstruct a parameter state from a fit directory (`digests` as in
    read_bytes).  B.csv (I x L), A.csv (J x K) and D.csv (M values) fix the
    dimensions; InputError names the first other block file that does not
    match them."""
    def load(name):
        path = os.path.join(indir, f"{name}.csv")
        if not os.path.exists(path):
            raise InputError(f"missing parameter block file {path}")
        return read_matrix(path, allow_empty=name in ("D", "U", "V"), digests=digests)

    blocks = {name: load(name) for name in PARAM_FILES}
    I, L = blocks["B"].shape
    J, K = blocks["A"].shape
    M = blocks["D"].size
    shapes = GbmParams.shapes(I, J, K, L, M)
    # vectors are checked by their number of values; an empty file is a
    # block without entries, whatever shape it should have
    for name, shape in {**shapes, "omega": (1,)}.items():
        block = blocks[name]
        got = block.shape if len(shape) == 2 else (block.size,)
        if got != shape and (block.size or np.prod(shape)):
            raise InputError(
                f"{os.path.join(indir, name + '.csv')} has shape {got}, expected {shape} from "
                f"I x L = {I} x {L} (B.csv), J x K = {J} x {K} (A.csv) and M = {M} (D.csv)")
    return GbmParams(**{name: blocks[name].reshape(shape) for name, shape in shapes.items()},
                     omega=blocks["omega"].item())
