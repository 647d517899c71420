"""Features whose bits must not depend on which SIMD kernels numpy dispatches to.

numpy picks its vectorized ufunc loops at import, by CPU feature, and some of
them (``pow``, ``log2``, ``exp``) round differently at different levels. The
features here are built from IEEE multiplies, adds, divides and square roots,
and GLCM's MCC from one LAPACK eigen-solve, so a run with the dispatch targets
switched off (``NPY_DISABLE_CPU_FEATURES``) must give the same bytes as one
with them on. The GLCM entropies, Imc1 and Imc2 take ``log2`` and ``exp`` and
are left out, as are the GLRLM, GLSZM and GLDM entropies, which take ``log2``.
"""

import os
import subprocess
import sys

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__

from helpers import qvol
from oracles import random_level_grid

import radlearn
from radlearn.features import (first_order, glcm, glcm_features, gldm, gldm_features, glrlm,
                               glrlm_features, glszm, glszm_features, ngtdm, ngtdm_features)
from radlearn.quantize import quantize_fixed_bins
from radlearn.volume import PhantomSpec, generate_phantom

_GLCM = ("glcm.ClusterProminence", "glcm.ClusterShade", "glcm.ClusterTendency", "glcm.MCC")
_ENTROPIES = ("glrlm.RunEntropy", "glszm.ZoneEntropy", "gldm.DependenceEntropy")


def probe() -> str:
    """Hex bytes of first_order, the GLRLM, GLSZM and GLDM features but their
    entropies, and the NGTDM features on both 48^3 phantoms of seed 11, and of
    the NGTDM features and the three Cluster features and MCC of GLCM on both
    phantoms and 40 random grids."""
    values = []

    def glcm_and_ngtdm(q):
        fv = glcm_features(glcm(q))
        values.append(np.array([fv[n] for n in _GLCM]))
        values.append(ngtdm_features(ngtdm(q)).values)

    for v, m, _ in generate_phantom(PhantomSpec(n_samples_per_class=1, dims=(48, 48, 48),
                                                seed=11)):
        q = quantize_fixed_bins(v, m, 32)
        values.append(first_order(v, m).values)
        for fv in (glrlm_features(glrlm(q)), glszm_features(glszm(q)), gldm_features(gldm(q))):
            values.append(np.array([fv[n] for n in fv.names if n not in _ENTROPIES]))
        glcm_and_ngtdm(q)
    rng = np.random.default_rng(29)
    for _ in range(40):
        shape = tuple(int(s) for s in rng.integers(3, 9, size=3))
        n_bins = int(rng.integers(2, 33))
        glcm_and_ngtdm(qvol(random_level_grid(rng, shape, n_bins), n_bins))
    return np.concatenate(values).tobytes().hex()


def test_same_bits_at_every_numpy_simd_level():
    # each run switches off one more dispatch target from the top, so together
    # with this process every level the host offers is visited
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(radlearn.__file__)), os.path.dirname(__file__)])}
    expected = probe()
    for i in range(len(__cpu_dispatch__)):
        disabled = " ".join(__cpu_dispatch__[i:])
        run = subprocess.run([sys.executable, "-c", "import test_simd_levels as t; print(t.probe())"],
                             capture_output=True, text=True, check=True,
                             env={**env, "NPY_DISABLE_CPU_FEATURES": disabled})
        assert run.stdout.strip() == expected, f"bits differ with {disabled} off"
