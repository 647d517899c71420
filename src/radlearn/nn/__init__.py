"""Desk-scale reference network with manual backpropagation and training trace."""

from .config import NetConfig, TrainConfig
from .losses import LOSSES, loss_bce_logit, loss_hinge
from .optim import OPTIMIZERS, AdamOptimizer, RmsPropOptimizer
from .network import Network
from .checkpoint import (
    Checkpoint,
    checkpoint_from_network,
    load_checkpoint,
    save_checkpoint,
)
from .trace import TrainTrace, load_trace, save_trace
from .train import gradient_check, train
