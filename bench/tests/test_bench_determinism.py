"""Determinism contract on the deep workload's shape: the CSV bytes depend
only on (samples, seed), never on the worker count."""

from misodof import cli
from workloads import WORKLOADS

SMALL = 5 * 8192 + 100  # six blocks, the last one partial


def test_deep_shape_identical_for_1_and_2_workers(tmp_path):
    deep = WORKLOADS["deep"]
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"deep_w{workers}.csv"
        assert cli.main(deep.argv(7, out, samples=SMALL, workers=workers)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
