"""What a fresh interpreter loads.

A one-line invocation leaves `dataclasses`, `inspect`, `json`, `shlex` and
the gcd unloaded: `json` loads with the first `--format json` line,
`webflat.modular` with the first gcd, even one that takes a cheap exit.  `import webflat` loads every
layer module, because callers (the benchmark's tracer among them) read the
layers from `sys.modules` right after it.  Each case runs in its own
interpreter, started with -S so that no site-packages hook loads a module
in webflat's place.
"""

import pathlib
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
LAZY = ("dataclasses", "inspect", "json", "shlex", "webflat.modular")
LAYERS = ("webflat.field", "webflat.poly", "webflat.webs", "webflat.singular", "webflat.cli")
SETUP_LINE = ["discriminant", "--web", "p^3 - p"]


def _loaded_after(code):
    """The names among LAZY and LAYERS in sys.modules after `code` ran in a
    fresh interpreter."""
    script = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % SRC,
        code,
        "print('loaded:', *[n for n in %r if n in sys.modules])" % (LAZY + LAYERS,),
    ])
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    assert last.startswith("loaded:"), done.stdout
    return set(last.split()[1:])


def _main(argv):
    return "from webflat.cli import main\nassert main(%r) == 0" % (argv,)


def test_the_setup_line_loads_none_of_the_lazy_modules():
    loaded = _loaded_after(_main(SETUP_LINE))
    assert not loaded & set(LAZY), loaded
    assert set(LAYERS) <= loaded


@pytest.mark.parametrize(
    "argv, module",
    [
        (SETUP_LINE + ["--format", "json"], "json"),
        (["curvature", "--web", "(y - p*x)^3 + p^3*x - 1"], "webflat.modular"),
        (["sing", "--vf", "x ; y", "--at", "0,0"], "webflat.modular"),  # a gcd's cheap exit
    ],
)
def test_a_lazy_module_loads_with_the_line_that_needs_it(argv, module):
    loaded = _loaded_after(_main(argv))
    assert module in loaded
    assert not loaded & (set(LAZY) - {module}), loaded


def test_import_webflat_loads_every_layer_module():
    loaded = _loaded_after("import webflat")
    assert loaded == set(LAYERS), loaded
