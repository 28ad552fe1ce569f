"""Few-shot adaptation of frozen embedding models with text-initialized heads.

Each name is imported from its module: ``from cniprobe.benchmark import RunSpec``.
"""

# Every module but ``cli`` loads here: timing ``import cniprobe`` times the library.
from . import (benchmark, dataset, distill, errors, evaluate, headinit,  # noqa: F401
               model, optim, rng, tensorio, train)
