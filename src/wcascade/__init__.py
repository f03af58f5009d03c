"""Multiplicative wavelet-cascade synthesis and multifractal analysis.

The package exports every name in each module's ``__all__``; those lists
are the only list of public names.
"""

from wcascade import cascade, dwt, empirics, stats, wtmm
from wcascade.cascade import *  # noqa: F403
from wcascade.dwt import *  # noqa: F403
from wcascade.empirics import *  # noqa: F403
from wcascade.stats import *  # noqa: F403
from wcascade.wtmm import *  # noqa: F403

__all__ = [*cascade.__all__, *dwt.__all__, *empirics.__all__, *stats.__all__, *wtmm.__all__]

__version__ = "0.1.0"
