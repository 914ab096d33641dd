"""The consolidated ``RunOptions`` surface and its deprecation adapter.

Contracts (``docs/api.md``):

* ``options=RunOptions(...)`` and the historical keyword surface
  produce identical results; the keywords emit one
  ``DeprecationWarning`` naming the names used (``scale`` stays
  first-class and silent);
* mixing the two styles, conflicting ``scale``, and unknown or
  wrong-entry-point keywords all raise ``TypeError``;
* ``fingerprint()`` keys batching: identical semantics → identical
  fingerprint, reporting/live knobs don't perturb it;
* the ``repro.evalharness`` CLI constructs a ``RunOptions`` directly
  (no deprecation warnings on the migrated path).
"""

import os
import warnings

import pytest

from repro.evalharness import ResultCache, RunOptions, run_kernel, run_suite
from repro.evalharness.options import KERNEL_KWARGS, SUITE_KWARGS
from repro.obs import Metrics
from repro.serve import result_digest


# ----------------------------------------------------------------------
# The adapter: from_kwargs / to_kwargs
# ----------------------------------------------------------------------
def test_from_kwargs_roundtrip_and_warning():
    with pytest.warns(DeprecationWarning, match="verify"):
        opts = RunOptions.from_kwargs(scale="tiny", verify=False)
    assert opts == RunOptions(scale="tiny", verify=False)
    assert opts.to_kwargs() == {"scale": "tiny", "verify": False}
    # Round-trip: the minimal kwargs rebuild the same value object.
    assert RunOptions.from_kwargs(_warn=False, **opts.to_kwargs()) == opts


def test_scale_alone_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        opts = RunOptions.from_kwargs(scale="tiny")
    assert opts.scale == "tiny"


def test_unknown_keyword_raises_typeerror():
    with pytest.raises(TypeError, match="bogus"):
        RunOptions.from_kwargs(bogus=1)


def test_replace_returns_new_frozen_value():
    base = RunOptions(scale="tiny")
    other = base.replace(verify=False)
    assert base.verify and not other.verify
    with pytest.raises(Exception):  # frozen dataclass
        base.verify = False


# ----------------------------------------------------------------------
# run_kernel / run_suite front doors
# ----------------------------------------------------------------------
def test_run_kernel_options_equals_legacy_kwargs():
    opts = RunOptions(scale="tiny", verify=False)
    via_options = run_kernel("nn/euclid", options=opts)
    with pytest.warns(DeprecationWarning, match="verify"):
        via_legacy = run_kernel("nn/euclid", scale="tiny", verify=False)
    assert result_digest(via_options) == result_digest(via_legacy)


def test_run_kernel_rejects_mixed_styles():
    opts = RunOptions(scale="tiny")
    with pytest.raises(TypeError, match="not both"):
        run_kernel("nn/euclid", options=opts, verify=False)


def test_run_kernel_rejects_conflicting_scale():
    opts = RunOptions(scale="tiny")
    with pytest.raises(TypeError, match="conflicts"):
        run_kernel("nn/euclid", scale="small", options=opts)
    # A *matching* positional scale composes fine.
    run = run_kernel("nn/euclid", "tiny", options=opts)
    assert run.name == "nn/euclid"


def test_run_kernel_still_rejects_suite_only_keywords():
    assert "jobs" in SUITE_KWARGS and "jobs" not in KERNEL_KWARGS
    with pytest.raises(TypeError, match="jobs"):
        run_kernel("nn/euclid", scale="tiny", jobs=2)


def test_run_suite_options_path(tmp_path):
    opts = RunOptions(scale="tiny", result_cache_dir=str(tmp_path))
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
    same = base.replace(jobs=4, trace_path="t.json", cache_dir="/tmp/cc",
                        result_cache_dir="/tmp/rc", metrics=Metrics())
    assert base.fingerprint() == same.fingerprint()


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
