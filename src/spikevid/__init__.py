"""Desk-scale spiking video transformer: direct training with surrogate
gradients, time-dependent batch normalization, spike-form self-attention,
and synaptic-operation energy accounting.
"""

from .autodiff import Tensor, grad_check, no_grad, precision
from .model import ModelConfig, VideoSpikeNet, load_checkpoint, save_checkpoint, variant_config
from .neurons import NeuronConfig, SpikingLayer
from .profiler import EnergyModel, total_energy
from .training import TrainConfig, cross_entropy, evaluate, fit

__all__ = [
    "Tensor",
    "grad_check",
    "no_grad",
    "precision",
    "ModelConfig",
    "VideoSpikeNet",
    "load_checkpoint",
    "save_checkpoint",
    "variant_config",
    "NeuronConfig",
    "SpikingLayer",
    "EnergyModel",
    "total_energy",
    "TrainConfig",
    "cross_entropy",
    "evaluate",
    "fit",
]

__version__ = "0.1.0"
