"""Machine-speed probe: a fixed amount of work that does not use thermoevo.

The benchmark runs this script in a fresh process before each pair of
measured runs and rescales their times by ``NOMINAL_S`` over the probe's
wall time (see ``run.py``).  Like a thermoevo run it starts an interpreter,
imports the numpy and scipy modules thermoevo imports, loops in Python over
small numpy operations, formats floats and solves with a sparse LU
factorization.
"""

#: the probe's wall seconds on the machine the benchmark was defined on
#: (2-vCPU Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4, scipy 1.17)
NOMINAL_S = 0.9

if __name__ == "__main__":
    import numpy as np
    import scipy.integrate  # noqa: F401
    import scipy.interpolate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n = 2000
    lu = splu(sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csc"))
    x = np.ones(n)
    for _ in range(200):
        x = lu.solve(x) + 1.0

    m = np.eye(8)
    for _ in range(2000):
        m = np.einsum("ij,jk->ik", m, m) * 0.5 + 0.5 * np.eye(8)

    text = ",".join(format(v, ".17g") for v in np.linspace(0.0, 1.0, 20000))
    total = 0.0
    for i in range(100000):
        total += i * 0.5
