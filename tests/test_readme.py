"""The README's library quick tour runs and prints what its comments say."""

import contextlib
import io
import math
import re
from pathlib import Path

import mpmath as mp

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _one_spike_fixed_point() -> mp.mpf:
    """The quick tour's fixed point in 50 digits: one spike at delta, then the rest of the period.

    The branch of one spike maps x to ``c + s*x``, c the image of 0 with its
    spike at delta and ``s = exp(a*(T - delta))``, so the point is ``c/(1 - s)``.
    """
    with mp.workdps(50):
        a, b, A = mp.mpf(-0.5), mp.mpf(0.2), mp.mpf(10 / 3)
        T = mp.mpf(1.6)
        pulse = mp.mpf(0.2) * T
        on, off = -(b + A) / a, -b / a  # the rest points under A and under 0
        delta = mp.log((1 - on) / -on) / a
        y = on - on * mp.exp(a * (pulse - delta))  # from the reset at delta to the pulse end
        c = off + (y - off) * mp.exp(a * (T - pulse))
        return c / (1 - mp.exp(a * (T - delta)))


def test_quick_tour_prints_what_it_says():
    code = _quick_tour()
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    orbit_line, limits_line = out.getvalue().splitlines()
    # the first print's comment is its output: the orbit 0.4545 lies left
    # of sigma = 0.9548, so the word is L
    comment = re.search(r"print\(orbit\.eta, orbit\.word, orbit\.rate\)\s+# (.*)", code).group(1)
    assert orbit_line == comment == "1 L 0.625"
    orbit = namespace["orbit"]
    # the descent's fixed point c/(1 - s) of the one-spike branch, 2 ulps
    # above the 50-digit fixed point
    assert orbit.points == (0.45452788419370704,) and orbit.converged
    exact = _one_spike_fixed_point()
    assert abs(mp.mpf(orbit.points[0]) - exact) <= 2 * math.ulp(orbit.points[0])
    # slow limit d/delta, fast limit 1/delta(A*d), maximum 1/T1R at the
    # right end of the 1-spike window
    assert limits_line == "0.655395663181978 0.5812593171091355 0.7725709596159122"
    report = namespace["report"]
    assert report.windows and not report.violations
