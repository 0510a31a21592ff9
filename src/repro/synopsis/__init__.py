"""Synopses: compressed dataset representations for the federated setting.

A synopsis ``S_P`` (Section 1.1) is a compressed representation of a dataset
``P`` that supports, depending on the measure-function class:

- for the percentile class ``F_□``: random sampling over (an approximation
  of) ``P`` — ``Sample(kappa)`` in Algorithm 1 — and mass estimation for
  rectangles, with error ``Err_{S_P}(F_□) <= delta``;
- for the top-k preference class ``F_k``: a ``Score(v, k)`` procedure that
  estimates the k-th largest projection of ``P`` on a unit vector ``v``
  (Algorithm 5), with error ``Err_{S_P}(F_k) <= delta``.

Implementations (the kinds the paper names in Section 1.2):

- :class:`~repro.synopsis.exact.ExactSynopsis` — the dataset itself
  (centralized setting, ``delta = 0``).
- :class:`~repro.synopsis.sample.EpsilonSampleSynopsis` — a uniform
  subsample (an ε-sample).
- :class:`~repro.synopsis.histogram.HistogramSynopsis` — a d-dimensional
  equi-width histogram.
- :class:`~repro.synopsis.gmm.GMMSynopsis` — a diagonal Gaussian mixture
  model fitted with EM.
- :class:`~repro.synopsis.kernel.DirectionQuantileSynopsis` — a kernel-style
  direction/quantile sketch for preference queries [Yu-Agarwal-Yang 2012].
"""

from repro._lazy import namespace

__getattr__, __all__ = namespace(__name__, {
    "repro.synopsis.base": "Synopsis",
    "repro.synopsis.exact": "ExactSynopsis",
    "repro.synopsis.sample": "EpsilonSampleSynopsis",
    "repro.synopsis.histogram": "HistogramSynopsis",
    "repro.synopsis.gmm": "GMMSynopsis",
    "repro.synopsis.kernel": "DirectionQuantileSynopsis",
    "repro.synopsis.cover": "CoverSynopsis",
    "repro.synopsis.quantile": "QuantileHistogramSynopsis",
})
