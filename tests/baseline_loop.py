"""The Frank checks that need numpy's baseline loops, run in a child process.

Each logic family has one T-norm formula, ``LogicFamily._tnorm``, which runs
on ``math`` for floats and on numpy for arrays: Frank's calls ``math.expm1``
and ``math.log1p`` for the scalar ``tnorm``, and numpy's ``expm1`` and
``log1p`` for the LCM array engine.  On numpy's baseline loops these are the
C library's, bit for bit, as ``math``'s are, which the frozen Frank soft
digests of ``lcm_golden.json`` and the scalar ``tnorm`` use.  Where numpy
dispatches them to SIMD loops (SVML on AVX-512) some inputs round
differently.  ``run`` starts one interpreter with every dispatch target
switched off (``NPY_DISABLE_CPU_FEATURES`` set to numpy's
``__cpu_dispatch__``) and returns what it computed there:

* ``libm``: whether numpy's ``expm1`` and ``log1p`` there equal ``math``'s
  on a probe of inputs (if not, the exact checks cannot be made);
* ``lcm``: for each Frank soft case of ``test_lcm_golden``, its report and its
  digest, built from the library problem and, for the library-built cases,
  through the parser;
* ``tnorm``: for each case of ``test_truth.NUMPY_LOOP_CASES``, whether the
  array T-norm equals the scalar one bit for bit;
* ``digits``: whether the report writer's kernel, ``_digits.write``, prints
  what ``%.17g`` prints on a seeded sample that spans two of its slices, the
  rare floats included.

Run as a script, it prints that as JSON.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import fuzzydfa

SRC = Path(fuzzydfa.__file__).resolve().parents[1]
DISABLE = "NPY_DISABLE_CPU_FEATURES"
# A skipped exact check says this; CI fails an x86-64 run that prints it.
SKIP_REASON = ("numpy's baseline loop: its expm1/log1p are not the C library's here, "
               "so Frank's array T-norm and soft digests cannot be checked bit for bit")


def cpu() -> tuple[dict, list]:
    """numpy's CPU features (name -> available and not switched off) and the
    targets it dispatches to."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_features__, umath.__cpu_dispatch__


def run() -> dict:
    """The child's results (see the module docstring)."""
    env, dispatch = dict(os.environ), cpu()[1]
    if dispatch:  # else the default loop is the baseline
        env[DISABLE] = " ".join(dispatch)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(Path(__file__))], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _libm() -> bool:
    """Whether numpy's expm1 and log1p give math's bits on the arguments the
    Frank T-norm hands them, at every parameter it accepts."""
    import numpy as np

    rng = random.Random("baseline_loop/libm")
    xs = [rng.uniform(-20.0, 709.0) for _ in range(4000)] + [rng.uniform(-1e-3, 1e-3) for _ in range(4000)]
    ys = [rng.uniform(-0.999999, 1e6) for _ in range(4000)] + [rng.uniform(-1e-3, 1e-3) for _ in range(4000)]
    pairs = ((np.expm1, math.expm1, xs), (np.log1p, math.log1p, ys))
    return all(np.array_equal(array(np.array(args)).view(np.int64),
                              np.array(list(map(scalar, args))).view(np.int64))
               for array, scalar, args in pairs)


def _digits() -> bool:
    """``digits`` (see the module docstring), on rows of 7 floats."""
    import numpy as np

    from fuzzydfa import _digits

    rng = random.Random("baseline_loop/digits")
    rare = [0.0, -0.0, 1.0, 5e-324, 2.0**-1022, 1e-5, 1e-4, math.nextafter(1e-4, 0.0),
            math.nextafter(1e-4, 1.0), 1.0 - 2**-53, 0.5, 0.1]
    count = 7 * ((2 * _digits.SLICE + len(rare)) // 7 + 1)
    values = [rng.random() ** rng.choice((1, 3, 9)) for _ in range(count)]
    for seam in (_digits.SLICE, 2 * _digits.SLICE):  # the rare floats either side of each
        values[seam - len(rare):seam + len(rare)] = rare + rare
    rows = [", ".join(["%.17g"] * 7) % tuple(values[i:i + 7]) for i in range(0, len(values), 7)]
    return _digits.write(np.array(values), (b", \0\0" * 6 + b"\n\0\0\0") * len(rows)) == rows


def _main() -> dict:
    import numpy as np

    import test_lcm_golden as G
    import test_truth as T

    lcm = {}
    for name in G.FRANK_SOFT_CASES:
        report = G.CASES[name]()
        lcm[name] = {"report": report,
                     "digest": G.report_digest(lambda: report),
                     "parsed": G.report_digest(G.parsed_case(name))
                     if name in G.LIBRARY_LCM_CASES else None}
    tnorm = {}
    for name, case in T.NUMPY_LOOP_CASES.items():
        got, want = case()
        tnorm[name] = bool(np.array_equal(got.view(np.int64), want.view(np.int64)))
    return {"libm": _libm(), "lcm": lcm, "tnorm": tnorm, "digits": _digits()}


if __name__ == "__main__":
    print(json.dumps(_main()))
