"""The README's library quick tour, run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# What the tour prints: the Betti table of the rainbow DFI, drawn by
# BettiTable.__str__, which only the tour calls, and the Artinian ideal that
# the dual polarizes.
EXPECTED = """\
           0     1     2     3
total:     1     8    11     4
   0:      1     .     .     .
   1:      .     .     .     .
   2:      .     8    11     4
('x[1]^2', 'x[3]^2', 'x[1] * x[2] * x[3]', 'x[1] * x[2]^2', 'x[2]^2 * x[3]', 'x[2]^3')
"""


def test_the_quick_tour_prints_what_it_states(capsys):
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(tour, namespace)
    assert capsys.readouterr().out == EXPECTED
    # the ranks in the tour's comments
    assert namespace["cx"].ranks() == (1, 10, 15, 6)
    assert namespace["strand"].ranks() == (1, 8, 11, 4)
