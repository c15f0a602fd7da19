"""steinscope: exact symbolic tools for polynomial Stein operators.

The package turns a polynomial Stein operator into the linear ODE satisfied
by the characteristic function of any fixed point, classifies the asymptotic
branches of that ODE, and decides whether moment/regularity side conditions
make the operator characterising.  Supporting pieces: exact target-law moment
oracles with samplers, exact and Monte-Carlo operator verification, a
one-dimensional Malliavin Gamma calculus on Wiener chaos, and nullspace-based
discovery of operators from moment sequences.
"""

__version__ = "0.1.0"
