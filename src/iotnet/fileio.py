"""File formats shared by the CLI and the scenario engine.

All writers go through :func:`atomic_write_text` (write to a temp file in the
target directory, then rename), so a crashed run never leaves a partial file.
All floats are written as ``repr`` writes them, the shortest round-trip form,
which keeps outputs byte-identical across runs.  Bulk floats (plan columns,
q-file probs, a certificate's maximizer) take ``repr``'s bytes from
:func:`float_texts`, which lays orjson's shortest digits out as ``repr`` does.
Path-keyed files (q-files, path priors, plan ``[paths]``) are read into node
matrices plus value vectors.

Every reader, here and in ``network`` and ``scenario``, runs under :func:`naming`,
which names its file in any error, and reads its numbers through :func:`number`,
:func:`whole_number` and :func:`numbers` (the README's *File formats* rule).

Plans are written a column at a time: path strings from one string per node
id, floats through :func:`float_texts`, one ``"\n".join`` at the end.
Text in the writer's layout is read back the same way, with one split and one
conversion per column of ``[paths]`` and ``[edge_usage]`` once every line has
the writer's cell count: orjson decodes each column, and a column it does not
read as the Python conversion would goes through ``int`` or ``float``.  Any
other text goes to the line-by-line reader, which names the first bad line.
The sparse ``entries`` of an rq-file are read the same way: one conversion
per column when every entry is a well-formed ``[i, j, w]`` on its own network
edge, else the entry loop, which names the first bad entry.  Every input file
is UTF-8 text.  JSON files are decoded with the cyclic garbage collector
paused, since the fresh document holds no garbage; a q-file keeps it paused
until its document is converted and freed.  A document nested deeper than
the decoder recurses is refused.  A q-file, the one large input, is decoded
by orjson and kept only when it reads as valid; ``json`` decodes and refuses
any other.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import tempfile
from contextlib import contextmanager
from itertools import chain, repeat
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .chain import logs
from .errors import IOTError, ValidationError
from .network import Network, PathSpace, row_ranks


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def digits(n: int) -> str:
    """The decimal digits of the whole number ``n``, at any size: ``str``
    refuses an int of more than 4,300 digits, ``Decimal`` does not."""
    from decimal import Decimal   # here: importing it costs every command 2 ms
    return str(Decimal(n))


# orjson writes an exponent as "e16" or "e-7" where repr writes "e+16" or "e-07"
_UNSIGNED_EXPONENT = re.compile(rb"e(?=\d)")
_ONE_DIGIT_EXPONENT = re.compile(rb"e-(?=\d,)")


def float_texts(values) -> list[str]:
    """``list(map(repr, values))`` of a flat float array, from orjson's text.

    orjson writes the shortest round-trip digits, as ``repr`` does, and
    writes them with an exponent where ``repr`` does, but for three things.
    Its exponent has no ``+`` and no leading zero (``1e16``, ``1e-7``): two
    regular expressions with literal replacements, which run in C, put them
    in.  It writes ``1e-5 <= |x| < 1e-4`` positionally (``repr`` only from
    ``1e-4``): ``repr`` writes those values.  And it writes NaN and the
    infinities as ``null``: ``repr`` writes an array that holds one.
    """
    array = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(array).all():
        return list(map(repr, array.tolist()))
    import orjson

    text = orjson.dumps(array, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b","
    text = _ONE_DIGIT_EXPONENT.sub(b"e-0", _UNSIGNED_EXPONENT.sub(b"e+", text))
    texts = text.decode().split(",")[:array.size]
    size = np.abs(array)
    band = np.flatnonzero((size >= 1e-5) & (size < 1e-4))
    for k, value in zip(band.tolist(), array[band].tolist()):
        texts[k] = repr(value)
    return texts


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector; restore its state on every exit."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


@contextmanager
def naming(*names: str):
    """Put ``"<names>: "`` (a file's kind and path, a field, an alpha) in
    front of an :class:`IOTError` raised inside, keeping its type and its
    fields (a :class:`ConvergenceError`'s residual)."""
    try:
        yield
    except IOTError as exc:
        exc.args = (f"{' '.join(names)}: {exc}",)
        raise


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read the file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text: {exc.reason} at byte "
                              f"{exc.start}") from exc


def _read_json(path: str) -> object:
    # the decoded document is a tree of fresh dicts and lists, none of them
    # garbage, so a collection during the decode could free nothing
    with _collector_paused():
        try:
            return json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ValidationError("JSON nested too deeply to read") from exc


def parse_field(what: str, convert: Callable, value: object) -> Any:
    """``convert(value)``; a value the converter refuses is an error naming ``what``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} is malformed: {exc}") from exc


def number(value: object) -> float:
    """``float(value)``, refusing a boolean (Python's 0 or 1) and a string."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def whole_number(value: object) -> int:
    """``int(value)``, refusing what :func:`number` refuses and a fraction."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def numbers(value: object) -> np.ndarray:
    """The float array of a nested JSON list, refusing a cell :func:`number` refuses."""
    array = np.array(value, dtype=float)   # numpy refuses a ragged nesting
    cells = [value]
    for _ in range(array.ndim):
        cells = list(chain.from_iterable(cells))
    odd = set(map(type, cells)) & {bool, str, type(None)}
    if odd:
        number(next(v for v in cells if type(v) in odd))
    return array


# ---------------------------------------------------------------------------
# probability vectors over nodes
# ---------------------------------------------------------------------------


def node_masses(obj: object) -> dict[int, float]:
    """The ``{node id: mass}`` map of a JSON object: finite nonnegative masses,
    each node named once; an id is a key, so a string (``"01"`` names node 1)."""
    if not isinstance(obj, dict):
        raise ValidationError("expected a JSON object of node -> mass")
    masses: dict[int, float] = {}
    for key, value in obj.items():
        node = parse_field("node id", int, key)
        if node in masses:
            raise ValidationError(f"node {node} is named twice")
        masses[node] = mass = parse_field("mass", number, value)
        if not math.isfinite(mass):
            raise ValidationError(f"non-finite mass {mass!r} at node {node}")
        if mass < 0:
            raise ValidationError(f"negative mass at node {node}")
    return masses


def vector_from_obj(obj: object, n: int) -> np.ndarray:
    """Decode a length-``n`` probability vector from a JSON array or id->mass map."""
    if isinstance(obj, list):
        if len(obj) != n:
            raise ValidationError(f"expected {n} entries, got {len(obj)}")
        obj = dict(enumerate(obj, 1))
    elif not isinstance(obj, dict):
        raise ValidationError("expected a JSON array or object")
    out = np.zeros(n, dtype=float)
    for node, mass in node_masses(obj).items():
        if not (1 <= node <= n):
            raise ValidationError(f"unknown node id {node}")
        out[node - 1] = mass
    total = float(out.sum())
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-6):
        raise ValidationError(f"masses sum to {total!r}, expected 1")
    return out / total


def load_marginal(path: str, n: int) -> np.ndarray:
    with naming("marginal", path):
        return vector_from_obj(_read_json(path), n)


# ---------------------------------------------------------------------------
# path distributions (q-files)
# ---------------------------------------------------------------------------


def _not_a_mass(values: np.ndarray) -> np.ndarray:
    """Mask of the values that are NaN, infinite or negative."""
    return ~(np.isfinite(values) & (values >= 0))


def _repeats(rank: np.ndarray) -> np.ndarray:
    """Mask of the rows whose rank an earlier row already has."""
    repeat = np.ones(rank.size, dtype=bool)
    repeat[np.unique(rank, return_index=True)[1]] = False
    return repeat


def load_path_distribution(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Load a q-file: ``{"horizon": T, "entries": [{"path": [...], "prob": p}]}``.

    Returns ``(horizon, rows, probs)`` in file order.  An invalid file is reported
    at its first entry that does not parse (ids beyond int64 do not), has the
    wrong length, a non-finite or negative prob (JSON's ``NaN`` and
    ``Infinity`` parse) or an earlier entry's path, in that order.

    The file is first decoded by orjson and kept only when :func:`_accepted`
    finds it valid; any other file is decoded again by ``json`` and read, or
    refused, by :func:`_path_table`.
    """
    # the document and the lists built from it are fresh containers, freed
    # when the table returns: a collection before then could free nothing
    with _collector_paused(), naming("path distribution", path):
        return _accepted(path) or _path_table(_read_json(path))


def _columns(horizon: int, entries: list) -> tuple[np.ndarray, np.ndarray] | None:
    """The node matrix and probs of ``entries`` by one flat conversion, when
    every id is an int, every prob an int or float (no bool or string) and
    every path ``horizon + 1`` long; None otherwise, for the entry loop."""
    try:
        paths = [ent["path"] for ent in entries]
        ids = list(chain.from_iterable(paths))
        probs = [ent["prob"] for ent in entries]
        if (set(map(type, ids)) <= {int} and set(map(type, probs)) <= {float, int}
                and list(map(len, paths)).count(horizon + 1) == len(paths)):
            return (np.fromiter(ids, np.int64, len(ids)).reshape(len(paths), -1),
                    np.array(probs, dtype=float))
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    return None


def _accepted(path: str) -> tuple[int, np.ndarray, np.ndarray] | None:
    """The q-file ``path`` decoded by orjson, when its horizon is an int and
    :func:`_columns` reads its entries to finite probs in ``[0, 2**63)`` on
    distinct paths; None for every other file, refused ones included.

    orjson turns an integer beyond 64 bits into a float, where ``json`` keeps
    it whole, so the guard lets no such number through: an id is an int that
    fits int64, and a prob that could be such an integer is left to ``json``.
    """
    # imported at the first q-file read: with datetime, uuid and zoneinfo it
    # costs about 9 ms, 5% of importing the package, which most runs never use
    import orjson

    try:
        with open(path, "rb") as fh:
            doc = orjson.loads(fh.read())
    except (OSError, orjson.JSONDecodeError):
        return None
    if not (isinstance(doc, dict) and type(doc.get("horizon")) is int
            and isinstance(doc.get("entries"), list)):
        return None
    horizon, table = doc["horizon"], _columns(doc["horizon"], doc["entries"])
    del doc
    if table is None:
        return None
    rows, probs = table
    if not ((probs >= 0) & (probs < 2.0 ** 63)).all() or _repeats(row_ranks(rows)).any():
        return None
    return horizon, rows, probs


def _path_table(doc: object) -> tuple[int, np.ndarray, np.ndarray]:
    """Read a q-file's ``json`` document: the reference for every refusal."""
    if not isinstance(doc, dict) or "horizon" not in doc or "entries" not in doc:
        raise ValidationError("need keys 'horizon' and 'entries'")
    horizon = parse_field("horizon", whole_number, doc["horizon"])
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise ValidationError("'entries' must be a list")
    fault = None
    # the entry loop, the reference for how an entry reads, runs only where
    # the flat conversion does not
    table = _columns(horizon, entries)
    if table is None:
        rows, probs = [], []
        for ent in entries:
            try:
                nodes = np.array([whole_number(v) for v in ent["path"]],
                                 dtype=np.int64)
                prob = number(ent["prob"])
            except (KeyError, TypeError, ValueError, OverflowError):
                fault = f"bad entry {ent}"
                break
            if len(nodes) != horizon + 1:
                fault = (f"path {tuple(nodes.tolist())} has wrong length "
                         f"for horizon {horizon}")
                break
            rows.append(nodes)
            probs.append(prob)
        # every row is horizon + 1 long; with none, the width is moot, and a
        # horizon of 10**30 would be no array dimension
        table = (np.array(rows, dtype=np.int64) if rows else np.empty((0, 0), np.int64),
                 np.array(probs, dtype=float))
    rows, probs = table
    bad = np.flatnonzero(_not_a_mass(probs) | _repeats(row_ranks(rows)))
    if bad.size:
        prob = probs[bad[0]]
        what = ("non-finite prob on" if not np.isfinite(prob)
                else "negative prob on" if prob < 0 else "duplicate path")
        raise ValidationError(f"{what} {tuple(rows[bad[0]].tolist())}")
    if fault is not None:
        raise ValidationError(fault)
    if not len(rows):
        raise ValidationError("no entries")
    return horizon, rows, probs


def save_path_distribution(path: str, horizon: int,
                           table: Mapping[tuple[int, ...], float]) -> None:
    """Write a q-file, byte for byte as ``json.dumps(doc, indent=2)`` lays it
    out: each id is written by ``str``, each prob by :func:`float_texts` (or,
    where it is not finite, by ``json``), and the layout is joined around them."""
    items = sorted(table.items())
    values = np.array([v for _, v in items], dtype=float)
    probs = float_texts(values)
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        probs[k] = json.dumps(float(values[k]))
    entries = []
    for (p, _), prob in zip(items, probs):
        nodes = ",\n        ".join(map(str, p))
        listed = f"[\n        {nodes}\n      ]" if p else "[]"
        entries.append(f'    {{\n      "path": {listed},\n      "prob": {prob}\n    }}')
    body = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    atomic_write_text(path, f'{{\n  "horizon": {json.dumps(horizon)},\n'
                            f'  "entries": {body}\n}}\n')


# ---------------------------------------------------------------------------
# imitation-step-weight files (rq-files)
# ---------------------------------------------------------------------------


def _entry_weights(entries: list, edge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat cells of ``edge`` and the weights that rq-file entries
    ``[i, j, w]`` name, read one entry at a time: the reference for how an
    entry reads, which names the first bad one."""
    n = edge.shape[0]
    cells, weights = {}, []
    for ent in entries:
        try:
            i, j, w = whole_number(ent[0]), whole_number(ent[1]), number(ent[2])
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"bad entry {ent}") from exc
        if not (1 <= i <= n and 1 <= j <= n and edge[i - 1, j - 1]):
            raise ValidationError(f"entry ({i},{j}) is not a network edge")
        if (i, j) in cells:
            raise ValidationError(f"pair ({i},{j}) is named twice")
        cells[(i, j)] = (i - 1) * n + j - 1
        weights.append(w)
    return np.array(list(cells.values()), dtype=np.int64), np.array(weights, dtype=float)


def _listed_weights(entries: list, edge: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray] | None:
    """What :func:`_entry_weights` reads, by one conversion per column, when
    every entry is an ``[int, int, int or float]`` list naming its own network
    edge; None otherwise, for the entry loop to read or to refuse."""
    if not entries or set(map(type, entries)) != {list} or (
            list(map(len, entries)).count(3) != len(entries)):
        return None
    tails, heads, values = zip(*entries)
    if set(map(type, tails + heads)) != {int} or set(map(type, values)) - {int, float}:
        return None
    try:
        ends = np.array((tails, heads), dtype=np.int64)
        weights = np.array(values, dtype=float)
    except OverflowError:
        return None
    n = edge.shape[0]
    inside = ((ends >= 1) & (ends <= n)).all(axis=0)
    at = np.clip(ends, 1, n) - 1
    cells = at[0] * n + at[1]
    if not (inside & edge.flat[cells]).all() or _repeats(cells).any():
        return None
    return cells, weights


def load_step_weights(path: str, network: Network) -> tuple[np.ndarray | None, np.ndarray]:
    """Load Markov step weights for an imitation target.

    Dense form: ``{"matrix": [[...]] [, "initial": [...]]}``.
    Sparse form: ``{"default": w0, "entries": [[i, j, w], ...]}`` (a list;
    :func:`_listed_weights`, else :func:`_entry_weights`) where the default
    applies to every existing network edge not listed; pairs without a
    network edge always get weight 0.  Weights must be finite and nonnegative.
    """
    with naming("step weights", path):
        doc = _read_json(path)
        n, edge, initial = network.n, network.edge_mask, None
        if isinstance(doc, dict) and "initial" in doc:
            with naming("initial"):
                initial = vector_from_obj(doc["initial"], n)
        if isinstance(doc, dict) and "matrix" in doc:
            mat = parse_field("matrix", numbers, doc["matrix"])
            if mat.shape != (n, n):
                raise ValidationError(f"matrix shape {mat.shape}, expected {(n, n)}")
        elif isinstance(doc, dict) and ("entries" in doc or "default" in doc):
            default = parse_field("default", number, doc.get("default", 1.0))
            entries = doc.get("entries", [])
            if not isinstance(entries, list):
                raise ValidationError("'entries' must be a list")
            mat = np.where(edge, default, 0.0)
            cells, weights = (_listed_weights(entries, edge)
                              or _entry_weights(entries, edge))
            mat.flat[cells] = weights
        else:
            raise ValidationError("need 'matrix' or 'entries'")
        bad = np.argwhere(~np.isfinite(mat))
        if bad.size:
            i, j = bad[0].tolist()
            raise ValidationError(f"non-finite weight {mat[i, j]} at ({i + 1},{j + 1})")
        if np.any(mat < 0):
            raise ValidationError("negative weight")
        tails, heads = np.nonzero((mat != 0) & ~edge)
        off = list(zip((tails + 1).tolist(), (heads + 1).tolist()))
        if off:
            raise ValidationError(f"positive weight off the edge set, e.g. {off[:5]}")
        return initial, mat


# ---------------------------------------------------------------------------
# prior files
# ---------------------------------------------------------------------------


def _logs(weights: np.ndarray, what: str) -> np.ndarray:
    """The logs of a prior file's linear weights (``-inf`` for a zero)."""
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValidationError(f"{what} must be nonnegative and finite")
    return logs(weights)


def load_prior(path: str):
    """Load a prior file into a MarkovPrior or PathPrior.

    Markov form: ``{"type": "markov", "initial": [...], "matrix": [[...]]}``
    (or ``"matrices"`` for a time-varying list).  Path form:
    ``{"type": "paths", "horizon": T, "n": n, "paths": [[...]], "weights": [...]}``.
    The files hold linear weights, nonnegative and finite; the priors hold
    their logs.
    """
    from .bridge import MarkovPrior, PathPrior

    with naming("prior", path):
        doc = _read_json(path)
        if not isinstance(doc, dict) or "type" not in doc:
            raise ValidationError("need a 'type' key")
        kind = doc["type"]
        if kind == "markov":
            if "initial" not in doc:
                raise ValidationError("markov prior needs 'initial'")
            initial = parse_field("initial", numbers, doc["initial"])
            if "matrix" in doc:
                key, axes = "matrix", 2      # one table for every step
            elif "matrices" in doc:
                key, axes = "matrices", 3    # a list of one table per step
            else:
                raise ValidationError("markov prior needs 'matrix' or 'matrices'")
            steps = parse_field(key, numbers, doc[key])
            if steps.ndim != axes:
                raise ValidationError(f"{key} is malformed: {steps.ndim} axes, "
                                      f"expected {axes}")
            build, fields = MarkovPrior, {"initial": initial,
                                          "log_steps": _logs(steps, "step matrices")}
        elif kind == "paths":
            try:
                horizon = whole_number(doc["horizon"])
                paths = [[whole_number(v) for v in p] for p in doc["paths"]]
                n = whole_number(doc["n"]) if "n" in doc else max(map(max, paths))
                weights = numbers(doc["weights"])
                # a length column keeps paths of different lengths apart
                width = max(map(len, paths), default=0)
                keyed = np.array([[len(p), *p] + [0] * (width - len(p)) for p in paths],
                                 dtype=np.int64).reshape(len(paths), width + 1)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"bad path prior: {exc}") from exc
            if weights.shape != (len(paths),):
                raise ValidationError(f"{len(paths)} paths but {weights.size} weights")
            rank = row_ranks(keyed)
            if _repeats(rank).any():
                raise ValidationError("duplicate paths")
            if np.any(keyed[:, 0] != horizon + 1):
                raise ValidationError("inconsistent path lengths")
            outside = np.flatnonzero(((keyed < 1) | (keyed > n))[:, 1:].any(axis=1))
            if outside.size:
                raise ValidationError(f"path {format_path(paths[outside[0]])} has a "
                                      f"node id outside 1..{n}")
            order = np.argsort(rank)
            space = PathSpace(horizon=horizon, n=n, array=keyed[order, 1:])
            build, fields = PathPrior, {"path_space": space,
                                        "log_weights": _logs(weights[order], "path weights")}
        else:
            raise ValidationError(f"unknown type {kind!r}")
        return build(**fields)


# ---------------------------------------------------------------------------
# plan files
# ---------------------------------------------------------------------------

PLAN_PROB_FLOOR = 1e-12


def format_path(nodes: Sequence[int]) -> str:
    return ">".join(map(str, nodes))


def path_strings(rows: np.ndarray) -> list[str]:
    """:func:`format_path` of each row of a node matrix, built a column at a
    time from one string per distinct node id."""
    ids, index = np.unique(rows, return_inverse=True)
    names = list(map(str, ids.tolist()))
    columns = [[names[k] for k in col]
               for col in index.reshape(np.shape(rows)).T.tolist()]
    return list(map(">".join, zip(*columns)))


def plan_to_text(plan) -> str:
    """Serialise a TransportPlan to the sectioned plan format."""
    space = plan.path_space
    lines = ["[meta]"]
    lines.append(f"horizon\t{space.horizon}")
    lines.append(f"nodes\t{space.n}")
    lines.append(f"paths\t{space.size}")
    lines.append(f"alpha\t{fmt(plan.alpha)}")
    lines.append("[objective]")
    lines.append(f"expected_cost\t{fmt(plan.objective.expected_cost)}")
    lines.append(f"kl_to_target\t{fmt(plan.objective.kl_to_target)}")
    lines.append(f"total\t{fmt(plan.objective.total)}")
    lines.append("[paths]")
    kept = np.flatnonzero(plan.path_law >= PLAN_PROB_FLOOR)
    lines += map("\t".join, zip(path_strings(space.array[kept]),
                                float_texts(plan.path_law[kept]),
                                float_texts(plan.path_costs[kept])))
    lines.append("[edge_usage]")
    lines.append("t\tfrom\tto\tmass")
    usage = plan.edge_usage
    steps, tails, heads = np.nonzero(usage >= PLAN_PROB_FLOOR)
    lines += map("\t".join, zip(map(str, steps.tolist()), map(str, (tails + 1).tolist()),
                                map(str, (heads + 1).tolist()),
                                float_texts(usage[steps, tails, heads])))
    return "\n".join(lines) + "\n"


def write_plan(path: str, plan) -> None:
    atomic_write_text(path, plan_to_text(plan))


def _plan_lines(text: str) -> tuple:
    """Read plan text one line at a time: the reader for any layout, which
    names the first line it cannot read."""
    section = None
    meta: dict[str, str] = {}
    objective: dict[str, float] = {}
    rows, probs, costs = [], [], []
    usage: dict[tuple[int, int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("["):
            section = line.strip()
            continue
        cols = line.split("\t")
        try:
            if section == "[meta]":
                meta[cols[0]] = cols[1]
            elif section == "[objective]":
                objective[cols[0]] = float(cols[1])
            elif section == "[paths]":
                prob, cost = float(cols[1]), float(cols[2])
                try:
                    rows.append(list(map(int, cols[0].split(">"))))
                except ValueError as exc:
                    raise ValidationError(f"bad path string {cols[0]!r}") from exc
                probs.append(prob)
                costs.append(cost)
            elif section == "[edge_usage]":
                if cols[0] == "t":
                    continue
                usage[(int(cols[0]), int(cols[1]), int(cols[2]))] = float(cols[3])
            else:
                raise ValidationError(f"line {lineno}: outside any known section")
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"plan line {lineno} malformed: {line!r}") from exc
    return meta, objective, rows, probs, costs, usage


# str.splitlines() ends a line at these ASCII characters as well as at "\n"
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def _counts_are(cells: list[str], sep: str, count: int) -> bool:
    return list(map(str.count, cells, repeat(sep))) == [count] * len(cells)


def _column(cells: list[str], kind: type) -> list:
    """``list(map(kind, cells))``, decoded by orjson when it reads every cell
    as a ``kind`` (``int`` or ``float``), and so as the conversion does.

    A JSON number is a number to ``int`` or ``float`` too, and orjson reads
    an int exactly and a float with ``float``'s rounding.  A cell that is no
    JSON number (``nan``, ``1_0``, ``1.``, a comma it would split at) leaves
    the column to the conversion, and so does an int in a float column or a
    float in an int column: ``-0`` is an int to orjson, which ``float``
    reads as -0.0, and an integer beyond 64 bits is a float to orjson, at
    least 2**63 in size, which the float column declines too.
    """
    import orjson

    try:
        values = orjson.loads("[" + ",".join(cells) + "]")
        kept = (len(values) == len(cells) and set(map(type, values)) <= {kind}
                and (kind is int or (np.abs(values) < 2.0 ** 63).all()))
    except orjson.JSONDecodeError:
        kept = False
    return values if kept else list(map(kind, cells))


def _plan_columns(text: str) -> tuple | None:
    """What :func:`_plan_lines` reads from text in :func:`plan_to_text`'s
    layout, with one split and one conversion per column of ``[paths]`` and
    ``[edge_usage]``; None for text in any other layout or with a cell the
    conversion refuses, which the line reader then reports."""
    head, _, rest = text.partition("\n[paths]\n")
    body, found, tail = rest.partition("\n[edge_usage]\nt\tfrom\tto\tmass\n")
    if (not found or (tail and tail[-1] != "\n") or not rest.isascii()
            or any(c in rest for c in _LINE_BREAKS)):
        return None
    if not (_counts_are(body.split("\n"), "\t", 2)
            and _counts_are(tail.split("\n")[:-1], "\t", 3)):
        return None
    cells = body.replace("\n", "\t").split("\t")
    paths = cells[0::3]
    if not _counts_are(paths, ">", paths[0].count(">")):
        return None
    usage_cells = tail.replace("\n", "\t").split("\t")[:-1]
    try:
        rows = np.array(_column(">".join(paths).split(">"), int),
                        dtype=np.int64).reshape(len(paths), -1)
        probs, costs = _column(cells[1::3], float), _column(cells[2::3], float)
        usage = dict(zip(zip(*(_column(usage_cells[k::4], int) for k in range(3))),
                         _column(usage_cells[3::4], float)))
    except (ValueError, OverflowError):
        return None
    meta, objective, head_rows, _, _, head_usage = _plan_lines(head)
    if head_rows or head_usage:
        return None
    return meta, objective, rows, probs, costs, usage


def parse_plan_text(text: str) -> dict:
    """Parse a plan file into ``meta``/``objective``/``edge_usage`` dicts and
    ``paths`` as ``(rows, probs, costs)``, rows in lexicographic order, each once."""
    meta, objective, rows, probs, costs, usage = _plan_columns(text) or _plan_lines(text)
    if not len(rows):
        raise ValidationError("plan file has no [paths] entries")
    try:
        rows = np.asarray(rows, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise ValidationError("plan [paths] need int64 ids and one length") from exc
    rank = row_ranks(rows)
    repeated = np.flatnonzero(_repeats(rank))
    if repeated.size:
        raise ValidationError(
            f"plan file lists path {format_path(rows[repeated[0]])} more than once")
    probs, costs = np.array(probs, dtype=float), np.array(costs, dtype=float)
    bad = np.flatnonzero(_not_a_mass(probs) | ~np.isfinite(costs))
    if bad.size:
        prob = probs[bad[0]]
        what = ("non-finite prob" if not np.isfinite(prob)
                else "negative prob" if prob < 0 else "non-finite cost")
        raise ValidationError(
            f"plan file has a {what} on path {format_path(rows[bad[0]])}")
    order = np.argsort(rank)
    return {"meta": meta, "objective": objective,
            "paths": (rows[order], probs[order], costs[order]),
            "edge_usage": usage}


def read_plan(path: str) -> dict:
    """:func:`parse_plan_text` of the file ``path``; an error names the file."""
    with naming("plan", path):
        return parse_plan_text(_read_text(path))
