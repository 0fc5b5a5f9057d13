"""perfbench's traced run wraps program names; every one of them must exist.

A renamed or deleted name would otherwise surface only as an AttributeError
in `perfbench/run.py --trace 1`.
"""

from pathlib import Path

import pytest

import symtraj
from symtraj import cli, llm, mock

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("http", [True, False])
def test_traced_run_installs_and_uninstalls(monkeypatch, http):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    backend_cls = llm.HttpBackend if http else mock.OracleMockBackend
    generate, mc_label = backend_cls.generate, cli.mc_label
    tracer = spans.Tracer()
    try:
        layers.install(tracer, symtraj, http=http)
        assert backend_cls.generate.__wrapped__ is generate
        assert cli.mc_label.__wrapped__ is mc_label
    finally:
        tracer.uninstall()
    assert backend_cls.generate is generate and cli.mc_label is mc_label
