"""The names the benchmark's tracer patches still exist.

``perfbench/tracer.py`` times the program by replacing ldlnet functions and
methods by name, so deleting or renaming one of them breaks the benchmark.
This test makes that a Tier-1 failure, not only a ``pytest perfbench`` one.
"""

import os

from ldlnet import autodiff, checkpoint, data, imageio, imaging, network, synth, training

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
PATCHED = (autodiff, autodiff.Tensor, checkpoint, data, imageio, imaging, network,
           network.Network, network.ResidualBlock, synth, training)


def _attributes():
    return [{name: id(value) for name, value in vars(owner).items()} for owner in PATCHED]


def test_tracer_installs_over_every_name_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    before = _attributes()
    tracer = Tracer()
    try:
        # install() leaves its earlier patches in place when a later name is
        # missing, so only the finally keeps them from leaking into other tests
        tracer.install()
    finally:
        tracer.restore()
    assert _attributes() == before
