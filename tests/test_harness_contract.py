"""The names the benchmark harness in ``perfbench/`` reaches into.

``perfbench/inputs.py`` writes its inputs with ``fileio.format_path`` and
``fileio.save_path_distribution``; ``perfbench/tracing.py`` times the layers
by wrapping the functions below wherever an ``iotnet`` module refers to them.
A rename or a new signature would break the benchmark or leave a layer
unwrapped (``trace.missing_wrappers``), so the names and parameters are
pinned here.
"""

import inspect
import json

import pytest

import iotnet
import iotnet.cli
import iotnet.fileio

WRAPPED = [
    (iotnet.fileio, "load_marginal", ["path", "n"]),
    (iotnet.fileio, "load_path_distribution", ["path"]),
    (iotnet.fileio, "load_step_weights", ["path", "network"]),
    (iotnet.fileio, "write_plan", ["path", "plan"]),
    (iotnet.fileio, "read_plan", ["path"]),
    (iotnet.cli, "_cmd_solve", ["args"]),
    (iotnet.cli, "_cmd_scenario", ["args"]),
    (iotnet.cli, "_cmd_robust_cert", ["args"]),
]


@pytest.mark.parametrize("module,name,params", WRAPPED,
                         ids=[f"{m.__name__}.{n}" for m, n, _ in WRAPPED])
def test_wrapped_functions_keep_their_names_and_parameters(module, name, params):
    fn = getattr(module, name)
    assert list(inspect.signature(fn).parameters) == params


def test_input_writers_keep_their_signatures(tmp_path):
    fileio = iotnet.fileio
    assert list(inspect.signature(fileio.format_path).parameters) == ["nodes"]
    assert list(inspect.signature(fileio.save_path_distribution).parameters) == [
        "path", "horizon", "table"]
    assert fileio.format_path((3, 14, 1)) == "3>14>1"
    f = tmp_path / "q.json"
    fileio.save_path_distribution(str(f), 1, {(2, 1): 0.25, (1, 2): 0.75})
    assert json.loads(f.read_text()) == {"horizon": 1, "entries": [
        {"path": [1, 2], "prob": 0.75}, {"path": [2, 1], "prob": 0.25}]}
    horizon, rows, probs = iotnet.load_path_distribution(str(f))
    assert horizon == 1 and rows.tolist() == [[1, 2], [2, 1]]
