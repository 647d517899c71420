"""Radiomics feature families and whole-sample extraction."""

from .vector import FeatureVector
from .firstorder import FIRST_ORDER_FEATURES, first_order
from .shape2d import SHAPE_2D_FEATURES, shape_2d
from .matrices import TextureMatrix, glcm, gldm, glrlm, glszm, ngtdm
from .texture_features import (
    GLCM_FEATURES,
    GLDM_FEATURES,
    GLRLM_FEATURES,
    GLSZM_FEATURES,
    NGTDM_FEATURES,
    glcm_features,
    gldm_features,
    glrlm_features,
    glszm_features,
    ngtdm_features,
)
from .extract import FAMILY_COUNTS, TOTAL_FEATURES, extract_all
