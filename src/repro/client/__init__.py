"""Client-side access paths: TCP, fast messaging and one-sided offloading.

Path selection (Algorithm 1, the bandit, the fixed baselines) lives in
:mod:`repro.runtime`: every RDMA client is a ``PolicySession``.
"""

from .adaptive import AdaptiveParams
from .predictors import (
    EwmaPredictor,
    TrendPredictor,
    make_predictor,
    most_recent,
)
from .base import (
    OP_DELETE,
    OP_INSERT,
    OP_SEARCH,
    ClientStats,
    Request,
    RequestIdAllocator,
)
from .fm_client import FmSession
from .offload_client import OffloadEngine, OffloadError
from .tcp_client import TcpSession

__all__ = [
    "AdaptiveParams",
    "EwmaPredictor",
    "TrendPredictor",
    "make_predictor",
    "most_recent",
    "OP_DELETE",
    "OP_INSERT",
    "OP_SEARCH",
    "ClientStats",
    "Request",
    "RequestIdAllocator",
    "FmSession",
    "OffloadEngine",
    "OffloadError",
    "TcpSession",
]
