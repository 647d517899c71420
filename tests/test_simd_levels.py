"""Features and cluster distances whose bits must not depend on which SIMD
kernels numpy dispatches to, or on which core OpenBLAS runs.

numpy picks its vectorized ufunc loops at import, by CPU feature, and some of
them (``pow``, ``log2``, ``exp``) round differently at different levels. The
features here are built from IEEE multiplies, adds, divides and square roots,
and GLCM's MCC from one LAPACK eigen-solve, so a run with the dispatch targets
switched off (``NPY_DISABLE_CPU_FEATURES``) must give the same bytes as one
with them on. The GLCM entropies, Imc1 and Imc2 take ``log2`` and ``exp`` and
are left out, as are the GLRLM, GLSZM and GLDM entropies, which take ``log2``.

The cluster distances are numpy's pairwise sums with no BLAS call, so they
must also give the same bytes under every OpenBLAS core the CPU can run
(``OPENBLAS_CORETYPE``). MCC's eigen-solve still goes through LAPACK and BLAS,
so it depends on the BLAS core and is left out of that test.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from helpers import qvol
from oracles import random_level_grid

import radlearn
from radlearn.cluster import correlation_distance_matrix
from radlearn.features import (first_order, glcm, glcm_features, gldm, gldm_features, glrlm,
                               glrlm_features, glszm, glszm_features, ngtdm, ngtdm_features)
from radlearn.quantize import quantize_fixed_bins
from radlearn.table import FeatureTable
from radlearn.volume import PhantomSpec, generate_phantom

_GLCM = ("glcm.ClusterProminence", "glcm.ClusterShade", "glcm.ClusterTendency", "glcm.MCC")
_ENTROPIES = ("glrlm.RunEntropy", "glszm.ZoneEntropy", "gldm.DependenceEntropy")


# the OpenBLAS cores to force, each with the CPU features it needs
_BLAS_CORES = {"Prescott": (), "Sandybridge": ("AVX",), "Haswell": ("AVX2", "FMA3"),
               "SkylakeX": ("AVX512F", "AVX512BW", "AVX512VL", "AVX512DQ", "AVX512CD")}


def _in_subprocess(function, **env) -> str:
    """The output of ``function`` of this module, run in a fresh interpreter."""
    path = os.pathsep.join(
        [os.path.dirname(os.path.dirname(radlearn.__file__)), os.path.dirname(__file__)])
    run = subprocess.run(
        [sys.executable, "-c", f"import test_simd_levels as t; print(t.{function}())"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path, **env})
    return run.stdout.strip()


def distances() -> str:
    """Hex bytes of the cluster distances of one fixed 40 x 94 table: columns
    scaled by powers of two from 2^-20 to 2^20 (exactly, with no ``pow``), a
    third of them correlated with another, and one constant."""
    rng = np.random.default_rng(31)
    n, f = 40, 94
    values = np.ldexp(rng.normal(size=(n, f)), rng.integers(-20, 21, size=f))
    values[:, 1::3] += 0.9 * values[:, 0:-1:3]
    values[:, 5] = 2.5
    table = FeatureTable([f"s{i}" for i in range(n)], [f"f{j:02d}" for j in range(f)],
                         values, [0, 1] * (n // 2))
    return correlation_distance_matrix(table).tobytes().hex()


def probe() -> str:
    """Hex bytes of first_order, the GLRLM, GLSZM and GLDM features but their
    entropies, and the NGTDM features on both 48^3 phantoms of seed 11, of
    the NGTDM features and the three Cluster features and MCC of GLCM on both
    phantoms and 40 random grids, and of the cluster distances."""
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
    return np.concatenate(values).tobytes().hex() + distances()


def test_same_bits_at_every_numpy_simd_level():
    # each run switches off one more dispatch target from the top, so together
    # with this process every level the host offers is visited
    expected = probe()
    for i in range(len(__cpu_dispatch__)):
        disabled = " ".join(__cpu_dispatch__[i:])
        assert _in_subprocess("probe", NPY_DISABLE_CPU_FEATURES=disabled) == expected, \
            f"bits differ with {disabled} off"


def _openblas_dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="numpy's BLAS is not OpenBLAS built with DYNAMIC_ARCH")
def test_same_cluster_distances_on_every_blas_core():
    # a forced core whose instructions the CPU lacks crashes, so only those it has
    expected = distances()
    for core, needs in _BLAS_CORES.items():
        if all(__cpu_features__.get(feature) for feature in needs):
            assert _in_subprocess("distances", OPENBLAS_CORETYPE=core) == expected, \
                f"distances differ on the {core} core"
