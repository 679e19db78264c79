"""The Catfish adaptive client — Algorithm 1 of the paper.

The decision rule lives in :class:`~repro.runtime.policy.Algorithm1Policy`
and the execution skeleton in :class:`~repro.runtime.session.PolicySession`;
an adaptive client is a ``PolicySession`` driving an ``Algorithm1Policy``.
This module keeps the :class:`AdaptiveParams` import path that experiment
configs and scripts use.
"""

from ..runtime.policy import AdaptiveParams

__all__ = ["AdaptiveParams"]
