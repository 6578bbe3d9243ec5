"""Desk-scale synthetic-CT pipeline built on a vector-quantized autoencoder.

Submodules:

* ``autograd``   minimal reverse-mode autodiff numeric core
* ``codebook``   cosine-similarity vector quantizer with EMA learning
* ``model``      encoder/quantizer/decoder assembly and VQCK checkpoints
* ``volume``     MVOL volume I/O, normalization, tiling
* ``phantom``    synthetic paired PET/CT phantom generator
* ``training``   AdamW, pretraining and fine-tuning loops
* ``pipeline``   tri-planar slice translation and 3D cube reconstruction
* ``evaluation`` masked metrics, Wilcoxon test, reports, difference maps
* ``cli``        the ``vqsct`` command-line interface
* ``atomic``     atomic file writes (temporary file, then ``os.replace``)

Submodules load lazily so that lightweight imports (and the CLI's thread
setup) do not pull in numpy before they need it.
"""

from importlib import import_module

from .errors import (DomainError, FormatError, ShapeError, TrainingError,
                     UsageError, VqsctError)

__version__ = "0.1.0"

_SUBMODULES = ("autograd", "codebook", "model", "volume", "phantom",
               "training", "pipeline", "evaluation", "cli", "atomic")

__all__ = ["__version__", "VqsctError", "DomainError", "ShapeError",
           "FormatError", "TrainingError", "UsageError", *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        module = import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
