import os
import subprocess
import sys

import zsl_kep

_NEW_TOP_LEVEL = """
import sys
before = set(sys.modules)
import zsl_kep.cli
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_cli_import_needs_only_the_stdlib():
    """The package has no runtime dependencies: importing the CLI pulls in
    nothing but the standard library and the package itself."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(zsl_kep.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _NEW_TOP_LEVEL], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
    assert "zsl_kep" in out
    assert [name for name in out
            if name != "zsl_kep" and name not in sys.stdlib_module_names] == []


def test_cli_import_loads_no_http_stack():
    """Only an HTTP send needs ``http.client`` and ``urllib.request`` (and
    through them ``ssl``): a mock run, ``score`` and ``inspect`` never load them."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(zsl_kep.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, zsl_kep.cli; print(' '.join(sys.modules))"],
        env=env, check=True, capture_output=True, text=True, timeout=60).stdout.split()
    assert {"ssl", "http.client", "urllib.request"}.isdisjoint(loaded)


def test_cli_import_loads_no_dataclasses():
    """Records are namedtuples and plain classes, so start-up pays neither for
    ``dataclasses`` nor for the ``inspect`` it imports; nor for ``traceback``,
    which only a claim that raises needs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(zsl_kep.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import sys; before = set(sys.modules); import zsl_kep.cli; "
              "print(' '.join(set(sys.modules) - before))")
    loaded = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                            capture_output=True, text=True, timeout=60).stdout.split()
    assert "zsl_kep.cli" in loaded
    assert {"dataclasses", "inspect", "traceback"}.isdisjoint(loaded)
