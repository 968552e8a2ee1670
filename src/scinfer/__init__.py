"""Topology inference for order-2 simplicial complexes.

Learns which edges and filled triangles of the complete complex on N
nodes best explain smooth node signals and partially observed edge
flows, via greedy block-coordinate descent, plus two baselines, a
synthetic data generator, evaluation metrics, and a sweep harness.

The package exports every name its modules list in ``__all__``.
"""

from .topology import *
from .synth import *
from .learner import *
from .baselines import *
from .evaluation import *
from .config import *
from .sweep import *
from .svgplot import *

# ``cli`` stays out: importing it loads argparse and builds the parser.

__version__ = "0.1.0"

# Each ``from .m import *`` above also binds the submodule ``m`` here.
__all__ = [
    name
    for module in (topology, synth, learner, baselines, evaluation, config, sweep, svgplot)
    for name in module.__all__
]
