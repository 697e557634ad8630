"""Fixed reference task, run right before each full benchmark child.

usage: python3 probe.py

It builds a 5-point Laplacian on a 700 x 700 grid and runs exactly 120
conjugate-gradient iterations on it, then prints the seconds that took as
one JSON line, ``{"probe_s": ...}``. It runs no finslerpde code, so a change
to the program cannot move it; its time measures how fast the shared host
runs memory-bound numeric code at that moment. Interpreter start and imports
are left out of the timing: on the 2-vCPU host of the baseline they tracked
the children's wall times less well than the solve itself did.
"""

import json
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

GRID = 700
CG_ITERATIONS = 120


def main():
    start = time.perf_counter()
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
    eye = sp.identity(GRID)
    laplacian = (sp.kron(line, eye) + sp.kron(eye, line)).tocsr()
    # rtol = atol = 0: exactly CG_ITERATIONS iterations, reported as info.
    _, info = spla.cg(laplacian, np.ones(GRID * GRID), rtol=0.0, atol=0.0,
                      maxiter=CG_ITERATIONS)
    elapsed = time.perf_counter() - start
    if info != CG_ITERATIONS:
        raise SystemExit(f"CG stopped after {info} iterations, not {CG_ITERATIONS}")
    print(json.dumps({"probe_s": elapsed}))


if __name__ == "__main__":
    main()
