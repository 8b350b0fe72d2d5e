"""tdoa_locate's lockstep starts against one start at a time, under three BLAS kernels.

tdoa_locate runs its 1 + n Gauss-Newton starts in lockstep: one stacked
matmul, solve and misfit evaluation per round. That keeps each start's bits
only while every BLAS/LAPACK call sees the operands a lone start gives it,
down to the alignment of each residual vector: OpenBLAS's Prescott-class
ddot rounds differently for a vector at 8 mod 16 bytes. The numpy wheel's
OpenBLAS picks its kernels by CPU (DYNAMIC_ARCH) and reads
OPENBLAS_CORETYPE, so each kernel class is tried in its own interpreter.

Run as a script, this file compares a fixed set of calls and prints one
JSON object; the test runs it under Prescott, Haswell and the default core.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def lone_start_tdoa(pts: np.ndarray, diffs: np.ndarray):
    """tdoa_locate's fit as it runs one start at a time, on fresh arrays:
    (x, y, residual), or None for no converged start."""
    def cost(p):
        ranges = np.maximum(np.linalg.norm(p - pts, axis=1), 1e-12)
        resid = (ranges[1:] - ranges[0]) - diffs
        return resid, float(resid @ resid)

    def gn_step(jac, resid):
        jtj, rhs = jac.T @ jac, -(jac.T @ resid)
        try:
            return np.linalg.solve(jtj, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(jtj, rhs, rcond=None)[0]

    centroid = pts.mean(axis=0)
    spread = float(np.max(np.linalg.norm(pts - centroid, axis=1)))
    offset = np.array([0.37, 0.23]) * max(spread, 1.0)
    best = None
    for start in [centroid] + [pt + offset for pt in pts]:
        p = start.copy()
        resid, c = cost(p)
        converged, seen = False, set()
        for _ in range(100):
            if p.tobytes() in seen:
                break
            seen.add(p.tobytes())
            units = (p - pts) / np.maximum(np.linalg.norm(p - pts, axis=1), 1e-12)[:, None]
            step = gn_step(units[1:] - units[0], resid)
            scale = 1.0
            for _ in range(25):
                trial = p + scale * step
                t_resid, t_c = cost(trial)
                if t_c <= c:
                    break
                scale *= 0.5
            else:
                break
            p, resid, c = trial, t_resid, t_c
            if float(np.linalg.norm(step)) < 1e-10 or c < 1e-24:
                converged = float(np.linalg.norm(p - centroid)) <= 100.0 * max(spread, 1.0)
                break
        if converged and (best is None or c < best[0]):
            best = (c, p)
    if best is None:
        return None
    c, p = best
    return float(p[0]), float(p[1]), math.sqrt(c / len(diffs))


def cases() -> list[tuple[list[tuple[float, float]], list[float]]]:
    """Receivers, 3 to 10 of them, around a source inside or outside their
    hull, with exact to badly noisy range differences."""
    # a start runs off along an asymptote, where every unit vector rounds
    # alike: JᵀJ is singular there
    out = [([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0), (5.0, 5.0)],
            [2.0, -1.0, 4.0, 0.3])]
    rng = random.Random(18)
    for _ in range(150):
        n, scale = rng.randint(3, 10), rng.choice([0.1, 1.0, 10.0, 100.0, 1000.0])
        pts = [(rng.random() * scale, rng.random() * scale) for _ in range(n)]
        src = (rng.uniform(-3, 4) * scale, rng.uniform(-3, 4) * scale)
        ranges = [math.dist(src, pt) for pt in pts]
        noise = rng.choice([0.0, 1e-3, 0.05, 0.3, 1.0]) * scale
        out.append((pts, [r - ranges[0] + noise * rng.uniform(-1, 1) for r in ranges[1:]]))
    return out


def _hexes(fix):
    return None if fix is None else [v.hex() for v in fix]


def compare() -> dict:
    """Every case through tdoa_locate and lone_start_tdoa, by float.hex."""
    from microloc import position
    from microloc.errors import NoConvergence

    fallbacks = 0
    gn_step = position._gn_step

    def counted(jac, resid):  # only a round with a singular stacked JᵀJ calls it
        nonlocal fallbacks
        fallbacks += 1
        return gn_step(jac, resid)

    position._gn_step = counted
    mismatches, no_fix, sizes = [], 0, set()
    for i, (pts, diffs) in enumerate(cases()):
        receivers = [position.Anchor(f"r{j}", pt) for j, pt in enumerate(pts)]
        try:
            est = position.tdoa_locate(receivers, diffs)
            got = (*est.position, est.residual)
        except NoConvergence:
            got = None
        want = lone_start_tdoa(np.array(pts), np.array(diffs))
        no_fix += want is None
        sizes.add(len(pts))
        if _hexes(got) != _hexes(want):
            mismatches.append(i)
    return {"mismatches": mismatches, "fallbacks": fallbacks, "no_fix": no_fix,
            "sizes": sorted(sizes)}


@pytest.mark.parametrize("core", ["Prescott", "Haswell", None])
def test_lockstep_fixes_match_lone_starts_bit_for_bit(core):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if core:
        env["OPENBLAS_CORETYPE"] = core
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["mismatches"] == [], result
    assert result["fallbacks"] > 0 and result["no_fix"] > 0, result
    assert {3, 4} <= set(result["sizes"]), result  # odd and even residual lengths


if __name__ == "__main__":
    print(json.dumps(compare()))
