"""qrdyn: a piecewise quasiregular self-map of R^3 with an escaping
half-space, its exact certificates and its escape-time dynamics."""

__version__ = "0.1.0"
