"""What `import nnrslab.cli` loads, checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _fresh_json(code: str, *args):
    """Run `code` in a new interpreter that imports ./src; parse its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_cli_import_loads_no_scipy():
    # scipy is imported only inside the exact-WMD and KL-diagnostic calls
    loaded = _fresh_json(
        "import json, sys\n"
        "import nnrslab.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    assert loaded == []


def test_benchmark_trace_targets_resolve():
    # the benchmark child wraps each (module, attribute) of its TARGETS
    # after `import nnrslab.cli`; a moved name or a module that is no
    # longer imported there would silently leave a span empty
    missing = _fresh_json(
        "import importlib.util, json, sys\n"
        "spec = importlib.util.spec_from_file_location('bench_child', sys.argv[1])\n"
        "child = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(child)\n"
        "import nnrslab.cli\n"
        "missing = []\n"
        "for span, home, attr, callers, _count, _memory in child.TARGETS:\n"
        "    missing += [span + ': ' + m for m in (home,) + tuple(callers or ())\n"
        "                if m not in sys.modules]\n"
        "    obj = sys.modules.get(home)\n"
        "    for part in attr.split('.'):\n"
        "        obj = getattr(obj, part, None)\n"
        "    if not callable(obj):\n"
        "        missing.append(span + ': ' + home + '.' + attr)\n"
        "print(json.dumps(missing))\n",
        str(ROOT / "benchmarks" / "child.py"),
    )
    assert missing == []



def test_benchmark_tracer_installs_every_target():
    # the benchmark's traced runs call Tracer.install, which getattr()s each
    # target (a deleted name fails there) and wraps it at its callers' lookup
    # names: the one feedback-and-decode rule must be wrapped where training
    # and the decoder look it up
    holders = _fresh_json(
        "import importlib.util, json, sys\n"
        "spec = importlib.util.spec_from_file_location('bench_child', sys.argv[1])\n"
        "child = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(child)\n"
        "import nnrslab.cli, nnrslab.model\n"
        "orig = nnrslab.model.greedy_or_sample_predict\n"
        "child.Tracer().install()\n"
        "print(json.dumps(sorted(n for n, m in sys.modules.items() if n.startswith('nnrslab.')\n"
        "                        and getattr(getattr(m, 'greedy_or_sample_predict', None),\n"
        "                                    '__wrapped__', None) is orig)))\n",
        str(ROOT / "benchmarks" / "child.py"),
    )
    assert {"nnrslab.metrics", "nnrslab.trainer"} <= set(holders)
