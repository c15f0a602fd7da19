"""The minimal Stein operators of H7(X) and H8(X), X standard normal.

Both live in ``tests/data`` as operator files (``SteinOperator.to_json_dict``
written by ``cli.report_json``), and the tests analyse the ODEs
``psi_transform`` builds from them.  Neither is in the operator catalog.

* ``H8_T10m4.json`` is the one basis vector of
  ``steinscope discover --target H8 --order 10 --degree 4`` (nullity 1,
  trail [(71, 1), (79, 1)]); ``test_discovery.py`` checks that the file
  equals that discovery.
* ``H7_T25m6.json`` is the one basis vector of the same discovery at
  (T, m) = (25, 6): nullity 1, trail [(198, 1), (206, 1)], about 4 s on a
  2-core VM.  Its 182 unknowns exceed ``budgets.MAX_UNKNOWNS = 128``, so
  it was found with that budget lifted to 256 and nothing else changed;
  (24, 6) and (25, 5) have nullity 0.  Until the budget admits the shape,
  its certificate is the exact moment recurrence of H7 at K = 256
  (``test_discovery.py``).
"""

from pathlib import Path

from steinscope.cli import load_operator_file
from steinscope.operators import psi_transform

DATA = Path(__file__).parent / "data"

H7_T25m6 = load_operator_file(DATA / "H7_T25m6.json")
H8_T10m4 = load_operator_file(DATA / "H8_T10m4.json")
H7_ODE = psi_transform(H7_T25m6)
H8_ODE = psi_transform(H8_T10m4)
