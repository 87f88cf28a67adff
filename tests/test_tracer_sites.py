"""The benchmark tracer's patch sites all exist in the package.

``perfbench/tracer.py`` wraps ppgp functions at the names their callers
look them up by, including bindings nothing inside the package calls
(``Kernel1d.derivative``, the ``fit`` and ``train`` imports of
``ppgp.cli``, and the ``fit`` import of ``ppgp.pursuit``).  Deleting one of those breaks ``perfbench/run.py --trace 1``
but no other tier-1 test, so this one loads the tracer by path, unchanged,
and resolves every site the way it does.
"""

import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_span_site_resolves():
    """The owner of every (module, attr) site in ``SPANS`` holds the binding
    itself, which is what the tracer replaces and restores."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for span, sites, _, _ in tracer.SPANS:
        for module, attr in sites:
            owner, key = tracer._resolve(module, attr)
            if key not in owner.__dict__:
                missing.append(f"{span}: {module}.{attr}")
    assert missing == []
