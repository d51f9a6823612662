"""The README's library quick tour runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
    # the 50-digit map's 32nd image of 0, correctly rounded: the return
    # within state_tol stops 4.6e-10 short of the fixed point
    assert orbit.points == (0.45452788373652947,) and orbit.converged
    # slow limit d/delta, fast limit 1/delta(A*d), maximum 1/T1R at the
    # right end of the 1-spike window
    assert limits_line == "0.655395663181978 0.5812593171091355 0.7725709596159122"
    report = namespace["report"]
    assert report.windows and not report.violations
