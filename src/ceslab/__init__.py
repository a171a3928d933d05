"""ceslab: a finite-section laboratory for the discrete averaging operator.

The library constructs the Cesaro matrix and its closed-form resolvent at
explicit truncation sizes, evaluates sequence-space norms (l^p, max norm,
and the Cesaro-average norms), scans the entrywise inequalities that
control the resolvent's regularity, and sweeps lambda grids recording
resolvent-norm growth across truncation sizes.

Every name a layer module lists in its ``__all__`` is re-exported here.
"""

from . import bounds, errors, multiplication, resolvent, spaces, spectra, triangular

__version__ = "0.1.0"

_LAYERS = (triangular, spaces, resolvent, bounds, spectra, multiplication, errors)

__all__ = [name for layer in _LAYERS for name in layer.__all__]
globals().update(
    {name: getattr(layer, name) for layer in _LAYERS for name in layer.__all__}
)
