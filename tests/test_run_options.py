"""The consolidated ``RunOptions`` surface.

Contracts (``docs/api.md``):

* ``options=RunOptions(...)`` is the one way to pass execution options;
  ``scale`` stays first-class and a conflicting ``scale`` raises
  ``TypeError``;
* ``fingerprint()`` keys batching: identical semantics → identical
  fingerprint, reporting/live knobs don't perturb it;
* the ``repro.evalharness`` CLI constructs a ``RunOptions`` directly
  (no deprecation warnings).
"""

import dataclasses
import os
import warnings

import pytest

from repro.evalharness import ResultCache, RunOptions, run_kernel, run_suite
from repro.obs import Metrics
from repro.serve import result_digest


def test_replace_returns_new_frozen_value():
    base = RunOptions(scale="tiny")
    other = base.replace(verify=False)
    assert base.verify and not other.verify
    with pytest.raises(Exception):  # frozen dataclass
        base.verify = False


# ----------------------------------------------------------------------
# run_kernel / run_suite front doors
# ----------------------------------------------------------------------
def test_run_kernel_rejects_conflicting_scale():
    opts = RunOptions(scale="tiny")
    with pytest.raises(TypeError, match="conflicts"):
        run_kernel("nn/euclid", scale="small", options=opts)
    # A *matching* positional scale composes fine.
    run = run_kernel("nn/euclid", "tiny", options=opts)
    assert run.name == "nn/euclid"


def test_run_suite_options_path(tmp_path):
    opts = RunOptions(scale="tiny", result_cache=ResultCache(str(tmp_path)))
    runs = run_suite(["nn/euclid"], options=opts)
    assert runs.ok and "nn/euclid" in runs
    # The options reach the result store: one entry, replayed on re-run.
    assert len(os.listdir(tmp_path)) == 1
    rcache = ResultCache(str(tmp_path))
    again = run_suite(["nn/euclid"], options=opts.replace(result_cache=rcache))
    assert rcache.stats()["hits"] == 1
    assert result_digest(again["nn/euclid"]) == result_digest(runs["nn/euclid"])


# ----------------------------------------------------------------------
# fingerprint(): the batching key
# ----------------------------------------------------------------------
def test_fingerprint_tracks_semantics_only():
    base = RunOptions(scale="tiny")
    assert base.fingerprint() == RunOptions(scale="tiny").fingerprint()
    assert base.fingerprint() != base.replace(scale="small").fingerprint()
    assert base.fingerprint() != base.replace(verify=False).fingerprint()
    # Reporting / persistence / live knobs never perturb the key.
    same = base.replace(jobs=4, trace_path="t.json",
                        result_cache=ResultCache(), metrics=Metrics())
    assert base.fingerprint() == same.fingerprint()


def test_live_fields_is_a_class_constant_not_a_field():
    # A dataclass field would be a constructor keyword and would land in
    # every fingerprint, live-object names included.
    assert "LIVE_FIELDS" not in {f.name for f in dataclasses.fields(RunOptions)}
    with pytest.raises(TypeError):
        RunOptions(LIVE_FIELDS=())
    assert "LIVE_FIELDS=" not in RunOptions().fingerprint()


def test_live_fields_set_names_the_offenders():
    assert RunOptions().live_fields_set() == ()
    assert RunOptions(metrics=Metrics()).live_fields_set() == ("metrics",)


# ----------------------------------------------------------------------
# The migrated CLI constructs RunOptions directly (no deprecation)
# ----------------------------------------------------------------------
def test_evalharness_cli_emits_no_deprecation(tmp_path, capsys):
    from repro.evalharness.__main__ import main

    out = tmp_path / "report.md"
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        rc = main(["--scale", "tiny", "--kernels", "nn/euclid",
                   "--out", str(out)])
    assert rc == 0
    assert "nn/euclid" in out.read_text()
