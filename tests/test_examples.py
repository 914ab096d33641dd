"""Smoke tests for the fast examples (run as modules, asserting their
own internal verification passes)."""

import runpy
import sys



def _run_example(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(f"examples/{name}", run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = _run_example("quickstart.py", monkeypatch, capsys)
    assert "all three machines match the interpreter bit-for-bit" in out
    assert "VGIW" in out and "Fermi" in out and "SGMF" in out


def test_divergence_walkthrough(monkeypatch, capsys):
    out = _run_example("divergence_walkthrough.py", monkeypatch, capsys)
    # The paper's Figure 2 state sequence.
    assert "then.1: [1, 3, 8]" in out
    assert "else.3: [2, 4, 5, 6, 7]" in out
    assert "results verified against the closed-form model" in out
    assert "(all done)" in out
