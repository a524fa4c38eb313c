"""Variational trajectory modeling on a latent ODE with sampled vector fields.

The library learns, per trajectory, a posterior over an initial latent state
and over a low-dimensional dynamics code; a hypernetwork maps codes to the
weights of the latent vector field.  An ex-post Gaussian mixture over the
collected codes supports generation, transfer, credible bands and
likelihood-based out-of-distribution detection.
"""

from . import cli, gmm, inference, model, nets, odeint, serialize, svg, syndata, tensorgrad
from .gmm import GMMModel, em_fit, select_model
from .inference import (
    CredibleBand,
    collect_gamma_samples,
    credible_band,
    neighborhood_sample,
    ood_calibrate,
    reconstruct,
    sample_trajectories,
    transfer_trajectory,
)
from .model import ELBOBreakdown, FNODEModel, TrainConfig, elbo_loss, fit
from .nets import MLP, GaussianParams, Hypernetwork, MLPSpec
from .odeint import SolverConfig
from .serialize import load_archive, save_archive
from .syndata import (
    PanelDataset,
    Trajectory,
    generate_set_a,
    generate_set_b,
    load_dataset,
    save_dataset,
)
from .tensorgrad import Tensor

__version__ = "0.1.0"
