"""The benchmark's tracer wraps finsite functions by name; every name it
lists must exist, or a traced benchmark run fails."""

import os
import sys

import finsite.sheaves

LADDERBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "ladderbench")


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, LADDERBENCH)
    try:
        import spans
    finally:
        sys.path.remove(LADDERBENCH)
    original = finsite.sheaves.sheafify
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert finsite.sheaves.sheafify is not original
        wrapped = {attr for _holder, attr, _orig in tracer.installed}
        assert {spec[1].split(".")[-1] for spec in spans.SPECS} <= wrapped
    finally:
        tracer.uninstall()
    assert finsite.sheaves.sheafify is original
