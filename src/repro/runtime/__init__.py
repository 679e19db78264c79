"""The unified client/server runtime layer.

One assembly path for every deployment shape (single-server, K-shard):

* :class:`~repro.runtime.stack.ServerStack` — one server's host, star
  network, R*-tree, transport front-end, heartbeat service;
* :class:`~repro.runtime.policy.PathPolicy` — the per-request fast
  messaging vs. offloading choice (Algorithm 1, the ε-greedy bandit and
  the two fixed baselines);
* :class:`~repro.runtime.session.PolicySession` — the generic session
  threading retry, circuit breaker and tracing around any policy;
* :class:`~repro.runtime.factory.SessionFactory` — the one place a
  client session is built.

:class:`~repro.cluster.deployment.Deployment` assembles these into a run.
"""

from .policy import (
    FAST_MESSAGING,
    OFFLOADING,
    PATH_FM,
    PATH_OFFLOAD,
    POLICY_NAMES,
    AdaptiveParams,
    Algorithm1Policy,
    AlwaysFmPolicy,
    AlwaysOffloadPolicy,
    BanditPolicy,
    LatencyEstimate,
    PathPolicy,
)
from .session import PolicySession
from .stack import ServerStack
from .factory import SessionFactory

__all__ = [
    "AdaptiveParams",
    "Algorithm1Policy",
    "AlwaysFmPolicy",
    "AlwaysOffloadPolicy",
    "BanditPolicy",
    "FAST_MESSAGING",
    "LatencyEstimate",
    "OFFLOADING",
    "PATH_FM",
    "PATH_OFFLOAD",
    "POLICY_NAMES",
    "PathPolicy",
    "PolicySession",
    "ServerStack",
    "SessionFactory",
]

