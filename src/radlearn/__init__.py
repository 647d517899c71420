"""radlearn: radiomics features, feature selection, and learnability
diagnostics for binary labels without visible image cues, at desk scale.

Layers, bottom to top:

* volume/quantize: 3D volumes, ROI masks, phantoms, gray-level binning
* features: 94 radiomics features in 7 families
* stats/metrics: Mann-Whitney filtering, AUROC, stratified k-fold
* forest/rfe/cluster: recursive elimination over a deterministic random
  forest, correlation clustering
* nn/diagnostics: reference trainer with manual backprop, learnability detectors
* cli: file-based pipeline stages (``radlearn --help``)
"""

from .errors import ConfigError, DataValidationError, NumericFailure, RadlearnError
from .volume import PhantomSpec, RoiMask, Volume, generate_phantom
from .quantize import QuantizedVolume, quantize_fixed_bins
from .features import FeatureVector, extract_all
from .table import FeatureTable, read_feature_table, write_feature_table

__version__ = "0.1.0"
